// Batch conflict-matrix engine benchmarks: N×M matrix throughput of the
// batch engine vs. the sequential per-pair detector loop, thread-pool
// scaling at 1/2/4/8 workers, and per-call dedup hit rates. The workload
// mirrors generated programs (workload/program_generator): many pairs,
// few distinct patterns. BM_SequentialPairLoop is the no-dedup baseline.

#include <chrono>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "conflict/batch_detector.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

constexpr size_t kMatrix = 64;  // 64×64 = 4096 pairs

/// 64 reads drawn from a pool of 12 distinct patterns (10 linear + 2
/// branching), cycled — repetition is the point: it is what generated
/// programs look like and what the per-call dedup exploits.
std::vector<Pattern> MakeReads() {
  std::vector<Pattern> pool;
  for (size_t i = 0; i < 10; ++i) {
    pool.push_back(bench::RandomLinear(4, /*seed=*/100 + i));
  }
  pool.push_back(bench::Xp("a[b]/c"));
  pool.push_back(bench::Xp("a[.//b]//c"));
  std::vector<Pattern> reads;
  for (size_t i = 0; i < kMatrix; ++i) reads.push_back(pool[i % pool.size()]);
  return reads;
}

std::vector<UpdateOp> MakeUpdates() {
  std::vector<UpdateOp> pool;
  auto content = [](const char* xml) {
    return std::make_shared<const Tree>(
        ParseXml(xml, bench::Symbols()).value());
  };
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("a/b"), content("<c/>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("a//c"), content("<b/>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("b"), content("<a><b/></a>")));
  pool.push_back(UpdateOp::MakeInsert(bench::Xp("*/c"), content("<c/>")));
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("a/b")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("a//c")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("b/c")).value());
  pool.push_back(UpdateOp::MakeDelete(bench::Xp("*//b")).value());
  std::vector<UpdateOp> updates;
  for (size_t i = 0; i < kMatrix; ++i) {
    updates.push_back(pool[i % pool.size()]);
  }
  return updates;
}

DetectorOptions MakeDetectorOptions() {
  DetectorOptions options;
  options.search.max_nodes = 3;  // keep the NP path bounded for branching reads
  return options;
}

/// The baseline the batch engine replaces: one Detect() facade call per
/// pair, no sharing, no threads.
uint64_t SequentialPairLoop(const std::vector<Pattern>& reads,
                            const std::vector<UpdateOp>& updates,
                            const DetectorOptions& options) {
  uint64_t conflicts = 0;
  for (const Pattern& read : reads) {
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> report = Detect(read, update, options);
      if (report.ok() && report->verdict == ConflictVerdict::kConflict) {
        ++conflicts;
      }
    }
  }
  return conflicts;
}

void BM_SequentialPairLoop(benchmark::State& state) {
  const std::vector<Pattern> reads = MakeReads();
  const std::vector<UpdateOp> updates = MakeUpdates();
  const DetectorOptions options = MakeDetectorOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SequentialPairLoop(reads, updates, options));
  }
  state.counters["pairs"] = static_cast<double>(kMatrix * kMatrix);
}
BENCHMARK(BM_SequentialPairLoop)->Unit(benchmark::kMillisecond);

/// Full batch engine (dedup + pool), a new engine per iteration, at
/// 1/2/4/8 threads.
void BM_BatchMatrix(benchmark::State& state) {
  const std::vector<Pattern> reads = MakeReads();
  const std::vector<UpdateOp> updates = MakeUpdates();
  BatchDetectorOptions options;
  options.detector = MakeDetectorOptions();
  options.num_threads = static_cast<size_t>(state.range(0));
  double hit_rate = 0;
  for (auto _ : state) {
    BatchConflictDetector engine(options);
    auto matrix = engine.DetectMatrix(reads, updates);
    benchmark::DoNotOptimize(matrix.data());
    const BatchStats& stats = engine.stats();
    hit_rate = static_cast<double>(stats.cache_hits) /
               static_cast<double>(stats.pairs_total);
  }
  state.counters["pairs"] = static_cast<double>(kMatrix * kMatrix);
  state.counters["cache_hit_rate"] = hit_rate;
}
BENCHMARK(BM_BatchMatrix)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Head-to-head: runs the sequential loop and the batch engine in the
/// same iteration and reports the ratio directly, so one JSON row carries
/// the acceptance number (speedup at the given thread count over the
/// sequential per-pair loop on the 64×64 workload).
void BM_BatchSpeedupVsSequential(benchmark::State& state) {
  const std::vector<Pattern> reads = MakeReads();
  const std::vector<UpdateOp> updates = MakeUpdates();
  BatchDetectorOptions options;
  options.detector = MakeDetectorOptions();
  options.num_threads = static_cast<size_t>(state.range(0));
  double speedup = 0;
  double hit_rate = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        SequentialPairLoop(reads, updates, options.detector));
    const auto t1 = std::chrono::steady_clock::now();
    BatchConflictDetector engine(options);
    auto matrix = engine.DetectMatrix(reads, updates);
    benchmark::DoNotOptimize(matrix.data());
    const auto t2 = std::chrono::steady_clock::now();
    speedup = std::chrono::duration<double>(t1 - t0).count() /
              std::chrono::duration<double>(t2 - t1).count();
    hit_rate = static_cast<double>(engine.stats().cache_hits) /
               static_cast<double>(engine.stats().pairs_total);
  }
  state.counters["speedup_vs_sequential"] = speedup;
  state.counters["cache_hit_rate"] = hit_rate;
}
BENCHMARK(BM_BatchSpeedupVsSequential)
    ->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, then dumps
/// the run's metrics + trace to BENCH_batch.json / BENCH_batch_trace.json
/// for the CI bench-smoke job and for loading into chrome://tracing.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  xmlup::bench::DumpObs("batch");
  return 0;
}
