// Stage 0 ablation for the schema-type pruning filter: a typed 64×64
// read×update matrix solved two ways on the warm ref-Detect path —
//   warm    compiled automata + memoized products, no schema (the PR 6
//           hot path: every pair runs the full Stage 1 machinery);
//   pruned  the same pairs with DetectorOptions::dtd set: schema-disjoint
//           pairs resolve in Stage 0 (method kTypePruned) before any
//           automata work.
// The workload is sixteen sealed subsystems under a sealed root, 4 reads
// + 4 updates each, so the ~94% cross-subsystem pairs (plus some
// insert-insensitive same-subsystem ones) are schema-disjoint — and also
// conflict-free under the unrestricted semantics, so the two passes must
// agree verdict-for-verdict. The harness times both, checks that
// agreement, and writes "prune" (pairs, per-pair microseconds, speedup,
// pruned_fraction, verdicts_identical) into BENCH_prune.json next to the
// obs counters (store.types.*, detector.method.type_pruned); CI asserts
// pruned_fraction > 0.5 and speedup >= 3.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "benchmark/benchmark.h"
#include "conflict/detector.h"
#include "conflict/update_op.h"
#include "dtd/dtd.h"
#include "obs/trace.h"
#include "pattern/pattern_store.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

constexpr size_t kSubsystems = 16;
constexpr size_t kReadsPerSubsystem = 4;
constexpr size_t kUpdatesPerSubsystem = 4;

/// Verdict-only options (witness construction would swamp the per-pair
/// cost this bench isolates); `dtd` is added per phase.
DetectorOptions WarmOptions() {
  DetectorOptions options;
  options.build_witness = false;
  return options;
}

struct TypedWorkload {
  std::shared_ptr<SymbolTable> symbols;
  std::shared_ptr<PatternStore> store;
  std::shared_ptr<const Dtd> dtd;
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;  // bound to `store`

  size_t pairs() const { return reads.size() * updates.size(); }
};

/// Sixteen closed label families under a sealed root: subsystem k owns
/// s<k>, x<k>, y<k> and nothing reaches across. Every pattern is anchored
/// r/s<k>, so cross-subsystem pairs are independent on *all* documents
/// (their depth-1 ancestors differ), which keeps the pruned and unpruned
/// verdict vectors identical — Stage 0 just proves it in O(1), while the
/// warm path pays one memoized product probe per read edge along chains
/// several x-steps deep.
TypedWorkload MakeTypedWorkload() {
  TypedWorkload w;
  w.symbols = std::make_shared<SymbolTable>();
  w.store = std::make_shared<PatternStore>(w.symbols);

  std::string schema = "root r\nallow r :";
  for (size_t k = 0; k < kSubsystems; ++k) schema += " s" + std::to_string(k);
  schema += "\n";
  for (size_t k = 0; k < kSubsystems; ++k) {
    const std::string s = std::to_string(k);
    schema += "allow s" + s + " : x" + s + "\n";
    schema += "allow x" + s + " : x" + s + " y" + s + "\n";
    schema += "seal y" + s + "\n";
  }
  w.dtd = std::make_shared<const Dtd>(Dtd::Parse(schema, w.symbols).value());

  auto chain = [](size_t k, size_t xsteps, bool descendant, bool leaf) {
    const std::string s = std::to_string(k);
    std::string path = "r/s" + s + (descendant ? "//" : "/") + "x" + s;
    for (size_t t = 1; t < xsteps; ++t) path += "/x" + s;
    if (leaf) path += "/y" + s;
    return path;
  };
  auto intern = [&](const std::string& xpath) {
    return w.store->Intern(MustParseXPath(xpath, w.symbols));
  };

  for (size_t k = 0; k < kSubsystems; ++k) {
    // 4 reads: twelve x-steps deep × child/descendant × with/without leaf.
    // Depth is the point: the warm path pays one product probe per read
    // edge, Stage 0 one footprint intersection per pair regardless.
    for (int descendant = 0; descendant < 2; ++descendant) {
      for (int leaf = 0; leaf < 2; ++leaf) {
        w.reads.push_back(intern(chain(k, 12, descendant != 0, leaf != 0)));
      }
    }
    // 2 deletes (outputs stay inside the subsystem; never the root) ...
    for (size_t t = 6; t <= 12; t += 6) {
      w.updates.push_back(
          UpdateOp::MakeDelete(
              w.store, intern(chain(k, t, /*descendant=*/t > 6, true)))
              .value());
    }
    // ... and 2 inserts grafting subsystem-local content.
    const std::string s = std::to_string(k);
    const std::string leaf_xml = "<y" + s + "/>";
    const std::string deep_xml = "<x" + s + "><y" + s + "/></x" + s + ">";
    for (size_t t = 6; t <= 12; t += 6) {
      auto content = std::make_shared<const Tree>(
          ParseXml(t > 6 ? deep_xml : leaf_xml, w.symbols).value());
      w.updates.push_back(UpdateOp::MakeInsert(
          w.store, intern(chain(k, t, /*descendant=*/false, false)),
          std::move(content)));
    }
  }
  return w;
}

/// One full matrix pass through the ref facade. With `options.dtd` set,
/// Stage 0 answers schema-disjoint pairs; `pruned` (when non-null) counts
/// them via the report's method field.
uint64_t Pass(const TypedWorkload& w, const DetectorOptions& options,
              std::vector<ConflictVerdict>* verdicts, uint64_t* pruned) {
  uint64_t solved = 0;
  for (const PatternRef read : w.reads) {
    for (const UpdateOp& update : w.updates) {
      Result<ConflictReport> r = Detect(*w.store, read, update, options);
      if (r.ok()) {
        ++solved;
        if (verdicts) verdicts->push_back(r->verdict);
        if (pruned && r->method == DetectorMethod::kTypePruned) ++*pruned;
      }
    }
  }
  return solved;
}

void BM_DetectWarmUnpruned(benchmark::State& state) {
  const TypedWorkload w = MakeTypedWorkload();
  const DetectorOptions options = WarmOptions();
  Pass(w, options, nullptr, nullptr);  // compile + fill the product cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pass(w, options, nullptr, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs()));
}
BENCHMARK(BM_DetectWarmUnpruned)->Unit(benchmark::kMicrosecond);

void BM_DetectWarmPruned(benchmark::State& state) {
  const TypedWorkload w = MakeTypedWorkload();
  DetectorOptions options = WarmOptions();
  options.dtd = w.dtd;
  Pass(w, options, nullptr, nullptr);  // summaries + residual automata
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pass(w, options, nullptr, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs()));
}
BENCHMARK(BM_DetectWarmPruned)->Unit(benchmark::kMicrosecond);

/// Harness-timed warm/pruned ablation — the acceptance numbers for
/// BENCH_prune.json. Best-of-reps per phase; the verdict vectors of the
/// two paths are compared elementwise (Stage 0 may change the *method* of
/// a pair, never its verdict).
std::string MeasurePrune() {
  const TypedWorkload w = MakeTypedWorkload();
  const DetectorOptions warm_options = WarmOptions();
  DetectorOptions pruned_options = warm_options;
  pruned_options.dtd = w.dtd;

  std::vector<ConflictVerdict> warm_verdicts, pruned_verdicts;
  uint64_t pruned_pairs = 0;
  Pass(w, warm_options, &warm_verdicts, nullptr);
  Pass(w, pruned_options, &pruned_verdicts, &pruned_pairs);
  const bool verdicts_identical =
      warm_verdicts == pruned_verdicts && warm_verdicts.size() == w.pairs();
  const double pruned_fraction =
      static_cast<double>(pruned_pairs) / static_cast<double>(w.pairs());

  constexpr int kReps = 7;
  constexpr int kInnerLoops = 3;
  auto time_best = [&](auto&& body) {
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int loop = 0; loop < kInnerLoops; ++loop) body();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best / (kInnerLoops * static_cast<double>(w.pairs()));
  };

  // The span recorder is production-off (obs/trace.h): enabled, it appends
  // mutex-guarded spans per Detect call — a fixed observability cost,
  // identical in both arms, that swamps the pruned arm's sub-microsecond
  // floor. The ablation times the production configuration; the registered
  // BM_* benchmarks above still record spans for the trace artifact.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  const bool spans_were_enabled = recorder.enabled();
  recorder.set_enabled(false);
  uint64_t sink = 0;
  // Warm: the PR 6 hot path — compiled automata + memoized products
  // (populated by the oracle passes above), every pair through Stage 1.
  const double warm_s =
      time_best([&] { sink += Pass(w, warm_options, nullptr, nullptr); });
  // Pruned: identical except Stage 0 short-circuits the disjoint pairs.
  const double pruned_s =
      time_best([&] { sink += Pass(w, pruned_options, nullptr, nullptr); });
  benchmark::DoNotOptimize(sink);
  recorder.set_enabled(spans_were_enabled);

  const double speedup = warm_s / pruned_s;
  char buffer[512];
  snprintf(buffer, sizeof(buffer),
           "\"prune\":{\"pairs\":%zu,\"warm_us\":%.3f,\"pruned_us\":%.3f,"
           "\"speedup\":%.2f,\"pruned_fraction\":%.4f,"
           "\"verdicts_identical\":%s}",
           w.pairs(), warm_s * 1e6, pruned_s * 1e6, speedup, pruned_fraction,
           verdicts_identical ? "true" : "false");
  std::cerr << "prune speedup: " << speedup << "x; per pair warm "
            << warm_s * 1e6 << " us, pruned " << pruned_s * 1e6 << " us; "
            << pruned_fraction * 100 << "% of pairs type-pruned; verdicts "
            << (verdicts_identical ? "identical" : "DIVERGED") << "\n";
  return buffer;
}

}  // namespace
}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, runs the
/// warm/pruned ablation, and dumps metrics + the comparison to
/// BENCH_prune.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string prune = xmlup::MeasurePrune();
  xmlup::bench::DumpObs("prune", prune);
  return 0;
}
