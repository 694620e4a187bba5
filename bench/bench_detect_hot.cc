// Hot-path detection ablation for the compiled-form store: the same
// read×update matrix solved two ways —
//   cold  value Detect: every call interns its operands into a call-local
//         store and compiles both before matching;
//   warm  ref Detect on a warm store: interned reads, bound updates and
//         compiled forms are reused, so a call is the matching alone.
// The harness times both, checks the verdicts are identical, and writes
// "detect_hot" (pairs, per-pair microseconds, speedup,
// verdicts_identical, and the warm phase's own store.nfa.hits/misses)
// into BENCH_detect_hot.json next to the obs counters (store.nfa.*,
// detector.*); CI asserts speedup >= 5.

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
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

constexpr size_t kReads = 24;
constexpr size_t kUpdatesPerKind = 6;

/// Verdict-only options: witness construction re-runs the Lemma 1 checker
/// per conflicting pair, which would swamp the interning and compilation
/// cost this bench isolates. Both phases use the same options, so the
/// comparison stays apples-to-apples.
DetectorOptions HotOptions() {
  DetectorOptions options;
  options.build_witness = false;
  return options;
}

struct Workload {
  std::shared_ptr<PatternStore> store;
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;  // bound to `store`

  size_t pairs() const { return reads.size() * updates.size(); }
};

Workload MakeWorkload() {
  Workload w;
  w.store = std::make_shared<PatternStore>(bench::Symbols());
  for (size_t i = 0; i < kReads; ++i) {
    w.reads.push_back(
        w.store->Intern(bench::RandomLinear(5 + i % 3, /*seed=*/7100 + i)));
  }
  auto content = [](const char* xml) {
    return std::make_shared<const Tree>(
        ParseXml(xml, bench::Symbols()).value());
  };
  for (size_t i = 0; i < kUpdatesPerKind; ++i) {
    w.updates.push_back(UpdateOp::MakeInsert(
        w.store, w.store->Intern(bench::RandomLinear(3 + i % 2,
                                                     /*seed=*/7300 + i)),
        content(i % 2 ? "<b><c/></b>" : "<a/>")));
    // Random linear patterns can select the root; retry until the delete
    // factory accepts one (seeds chosen so this terminates quickly).
    for (uint64_t seed = 7500 + 17 * i;; ++seed) {
      Result<UpdateOp> del = UpdateOp::MakeDelete(
          w.store, w.store->Intern(bench::RandomLinear(3 + i % 2, seed)));
      if (del.ok()) {
        w.updates.push_back(std::move(del).value());
        break;
      }
    }
  }
  return w;
}

/// One full matrix pass through the value facade (per-call interning and
/// compilation).
uint64_t PassCold(const Workload& w, const DetectorOptions& options,
                  std::vector<ConflictVerdict>* verdicts) {
  uint64_t solved = 0;
  for (const PatternRef read : w.reads) {
    const Pattern& read_pattern = w.store->pattern(read);
    for (const UpdateOp& update : w.updates) {
      Result<ConflictReport> r = Detect(read_pattern, update, options);
      if (r.ok()) {
        ++solved;
        if (verdicts) verdicts->push_back(r->verdict);
      }
    }
  }
  return solved;
}

/// One full matrix pass through the ref facade (compiled forms reused).
uint64_t PassCached(const Workload& w, const DetectorOptions& options,
                    std::vector<ConflictVerdict>* verdicts) {
  uint64_t solved = 0;
  for (const PatternRef read : w.reads) {
    for (const UpdateOp& update : w.updates) {
      Result<ConflictReport> r = Detect(*w.store, read, update, options);
      if (r.ok()) {
        ++solved;
        if (verdicts) verdicts->push_back(r->verdict);
      }
    }
  }
  return solved;
}

void BM_DetectColdValuePath(benchmark::State& state) {
  const Workload w = MakeWorkload();
  const DetectorOptions options = HotOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PassCold(w, options, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs()));
}
BENCHMARK(BM_DetectColdValuePath)->Unit(benchmark::kMicrosecond);

void BM_DetectWarmCachedPath(benchmark::State& state) {
  const Workload w = MakeWorkload();
  const DetectorOptions options = HotOptions();
  PassCached(w, options, nullptr);  // compile every entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(PassCached(w, options, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.pairs()));
}
BENCHMARK(BM_DetectWarmCachedPath)->Unit(benchmark::kMicrosecond);

/// Harness-timed cold/warm ablation — the acceptance numbers for
/// BENCH_detect_hot.json. Best-of-reps per phase to shrug off scheduler
/// noise; the verdict vectors of the two paths are compared elementwise.
/// The compiled-form counters are read around the warm phase alone: the
/// cold phase's call-local stores count a compile per operand, and so
/// does every BM_DetectColdValuePath iteration.
std::string MeasureDetectHot() {
  const Workload w = MakeWorkload();
  const DetectorOptions options = HotOptions();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::Counter& compiled_hits = registry.GetCounter("store.nfa.hits");
  const obs::Counter& compiled_misses =
      registry.GetCounter("store.nfa.misses");

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

  // Verdict oracle: one pass per phase, orders identical by construction.
  // The warm phase's first pass also compiles every entry before its
  // timed reps.
  std::vector<ConflictVerdict> cold_verdicts, warm_verdicts;
  uint64_t sink = 0;
  PassCold(w, options, &cold_verdicts);
  const double cold_s =
      time_best([&] { sink += PassCold(w, options, nullptr); });

  const uint64_t hits_before = compiled_hits.value();
  const uint64_t misses_before = compiled_misses.value();
  PassCached(w, options, &warm_verdicts);
  const double warm_s =
      time_best([&] { sink += PassCached(w, options, nullptr); });
  const uint64_t warm_hits = compiled_hits.value() - hits_before;
  const uint64_t warm_misses = compiled_misses.value() - misses_before;
  benchmark::DoNotOptimize(sink);

  const bool verdicts_identical = cold_verdicts == warm_verdicts &&
                                  cold_verdicts.size() == w.pairs();

  const double speedup = cold_s / warm_s;
  char buffer[512];
  snprintf(buffer, sizeof(buffer),
           "\"detect_hot\":{\"pairs\":%zu,\"cold_us\":%.3f,"
           "\"warm_us\":%.3f,\"speedup\":%.2f,\"verdicts_identical\":%s,"
           "\"warm_compiled_hits\":%llu,\"warm_compiled_misses\":%llu}",
           w.pairs(), cold_s * 1e6, warm_s * 1e6, speedup,
           verdicts_identical ? "true" : "false",
           static_cast<unsigned long long>(warm_hits),
           static_cast<unsigned long long>(warm_misses));
  std::cerr << "detect_hot speedup: " << speedup << "x warm; per pair cold "
            << cold_s * 1e6 << " us, warm " << warm_s * 1e6 << " us; verdicts "
            << (verdicts_identical ? "identical" : "DIVERGED") << "\n";
  return buffer;
}

}  // namespace
}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, runs the
/// cold/warm ablation, and dumps metrics + the comparison to
/// BENCH_detect_hot.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string detect_hot = xmlup::MeasureDetectHot();
  xmlup::bench::DumpObs("detect_hot", detect_hot);
  return 0;
}
