#ifndef XMLUP_BENCH_BENCH_UTIL_H_
#define XMLUP_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/xpath_parser.h"
#include "workload/catalog_generator.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/symbol_table.h"

namespace xmlup {
namespace bench {

/// Benchmarks share one symbol table; all generators are seeded so every
/// run measures identical inputs.
inline const std::shared_ptr<SymbolTable>& Symbols() {
  static const auto& table =
      *new std::shared_ptr<SymbolTable>(std::make_shared<SymbolTable>());
  return table;
}

inline Pattern Xp(const char* xpath) {
  return MustParseXPath(xpath, Symbols());
}

/// A random linear pattern of exactly `size` nodes over a small alphabet.
inline Pattern RandomLinear(size_t size, uint64_t seed,
                            double wildcard_prob = 0.2,
                            double descendant_prob = 0.4) {
  PatternGenOptions options;
  options.size = size;
  options.wildcard_prob = wildcard_prob;
  options.descendant_prob = descendant_prob;
  options.alphabet = {Symbols()->Intern("a"), Symbols()->Intern("b"),
                      Symbols()->Intern("c")};
  RandomPatternGenerator gen(Symbols(), options);
  Rng rng(seed);
  return gen.GenerateLinear(&rng);
}

inline Tree Catalog(size_t num_books, uint64_t seed) {
  CatalogOptions options;
  options.num_books = num_books;
  Rng rng(seed);
  return GenerateCatalog(Symbols(), options, &rng);
}

/// Observability toggle for bench harnesses: XMLUP_OBS=0 turns the trace
/// recorder off (metrics counters are always live); anything else —
/// including unset — turns it on.
/// Lets the same binary measure obs-on vs obs-off overhead.
inline bool ObsEnabledFromEnv() {
  const char* env = std::getenv("XMLUP_OBS");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

/// Applies ObsEnabledFromEnv() to the default recorder and returns the
/// chosen state. Call once at the top of a bench main().
inline bool EnableObsFromEnv() {
  const bool enabled = ObsEnabledFromEnv();
  obs::TraceRecorder::Default().set_enabled(enabled);
  return enabled;
}

/// Dumps the obs state accumulated by a bench run:
///   BENCH_<name>.json        — counters/gauges/histograms + span stats
///   BENCH_<name>_trace.json  — Chrome trace_event JSON (chrome://tracing)
/// Files land in the working directory; CI uploads them as artifacts.
/// `extra_json`, when non-empty, must be one or more `"key":value` members
/// (no surrounding braces) and is spliced into the top-level object —
/// harness-computed results (e.g. bench_intern's key_lookup comparison)
/// ride along in the same artifact CI already validates.
inline void DumpObs(const char* name, const std::string& extra_json = "") {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  const std::string stats_path = std::string("BENCH_") + name + ".json";
  std::ofstream stats(stats_path);
  stats << "{\"bench\":\"" << name << "\",\"obs_enabled\":"
        << (recorder.enabled() ? "true" : "false");
  if (!extra_json.empty()) stats << "," << extra_json;
  stats << ",\"metrics\":" << obs::MetricsRegistry::Default().Snapshot().ToJson()
        << ",\"trace\":" << recorder.ToStatsJson() << "}\n";
  stats.close();

  const std::string trace_path = std::string("BENCH_") + name + "_trace.json";
  std::ofstream trace(trace_path);
  trace << recorder.ToChromeTraceJson() << "\n";
  trace.close();
  std::cerr << "obs dump: " << stats_path << " + " << trace_path << " ("
            << recorder.Snapshot().size() << " spans)\n";
}

}  // namespace bench
}  // namespace xmlup

#endif  // XMLUP_BENCH_BENCH_UTIL_H_
