// Incremental conflict-matrix maintenance benchmarks (E15): a compiler
// editing one statement of a 64×64 read/update program wants the refreshed
// verdict matrix. From-scratch recomputation rebuilds a cold engine per
// edit (discarding everything the batch engine and PatternStore already
// know); MaintainedConflictMatrix recomputes one row or column, one solve
// per distinct pair in it, over a warm PatternStore. Workload shape
// matches bench_batch (E12): many pairs, few distinct patterns.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "conflict/conflict_matrix.h"
#include "xml/xml_parser.h"

namespace xmlup {
namespace {

constexpr size_t kMatrix = 64;   // 64×64 = 4096 pairs
constexpr size_t kEdits = 32;    // length of the edit stream

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

BatchDetectorOptions MakeOptions() {
  BatchDetectorOptions options;
  options.detector.search.max_nodes = 3;
  return options;
}

/// One deterministic single-statement edit: replace a read or an update at
/// a pseudo-random position. Half the replacement patterns are fresh
/// (never seen before — the incremental layer must solve a real row for
/// them), half revisit the pool (their row or column is re-solved over
/// the warm store).
struct Edit {
  bool is_read = false;
  size_t index = 0;
  std::optional<Pattern> pattern;  // reads
  std::optional<UpdateOp> update;  // updates
};

std::vector<Edit> MakeEditStream() {
  const std::vector<Pattern> reads = MakeReads();
  const std::vector<UpdateOp> updates = MakeUpdates();
  Rng rng(2026);
  std::vector<Edit> edits;
  for (size_t e = 0; e < kEdits; ++e) {
    Edit edit;
    edit.is_read = rng.NextBool(0.5);
    edit.index = rng.NextBounded(kMatrix);
    const bool fresh = rng.NextBool(0.5);
    if (edit.is_read) {
      edit.pattern = fresh ? bench::RandomLinear(4, /*seed=*/500 + e)
                           : reads[rng.NextBounded(reads.size())];
    } else if (fresh) {
      Result<UpdateOp> del =
          UpdateOp::MakeDelete(bench::RandomLinear(3, /*seed=*/700 + e));
      edit.update = del.ok() ? std::move(del).value() : updates[0];
    } else {
      edit.update = updates[rng.NextBounded(updates.size())];
    }
    edits.push_back(std::move(edit));
  }
  return edits;
}

/// From-scratch baseline: apply the edit to plain vectors, then rebuild a
/// cold engine (fresh PatternStore) and solve all 4096 pairs.
double TimeScratchStream(const std::vector<Edit>& edits) {
  std::vector<Pattern> reads = MakeReads();
  std::vector<UpdateOp> updates = MakeUpdates();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Edit& edit : edits) {
    if (edit.is_read) {
      reads[edit.index] = *edit.pattern;
    } else {
      updates[edit.index] = *edit.update;
    }
    BatchConflictDetector engine(MakeOptions());
    auto matrix = engine.DetectMatrix(reads, updates);
    benchmark::DoNotOptimize(matrix.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Maintained path: one warm matrix, each edit recomputes one row/column.
/// Returns elapsed seconds; `matrix` is left at the post-stream state so
/// the caller can report engine stats.
double TimeMaintainedStream(const std::vector<Edit>& edits,
                            MaintainedConflictMatrix* matrix) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Edit& edit : edits) {
    if (edit.is_read) {
      matrix->ReplaceRead(edit.index, *edit.pattern);
    } else {
      matrix->ReplaceUpdate(edit.index, *edit.update);
    }
    benchmark::DoNotOptimize(matrix->cell(0, 0));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void BM_ScratchEditStream(benchmark::State& state) {
  const std::vector<Edit> edits = MakeEditStream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TimeScratchStream(edits));
  }
  state.counters["edits"] = static_cast<double>(kEdits);
}
BENCHMARK(BM_ScratchEditStream)->Unit(benchmark::kMillisecond);

void BM_MaintainedEditStream(benchmark::State& state) {
  const std::vector<Edit> edits = MakeEditStream();
  for (auto _ : state) {
    state.PauseTiming();
    MaintainedConflictMatrix matrix(MakeOptions());
    matrix.Assign(MakeReads(), MakeUpdates());
    state.ResumeTiming();
    benchmark::DoNotOptimize(TimeMaintainedStream(edits, &matrix));
  }
  state.counters["edits"] = static_cast<double>(kEdits);
}
BENCHMARK(BM_MaintainedEditStream)->Unit(benchmark::kMillisecond);

}  // namespace

/// Harness-timed edit-stream comparison, so the acceptance number lands in
/// BENCH_incremental.json. Best-of-`kReps` to shrug off scheduler noise;
/// the maintained matrix is rebuilt per rep (edits mutate it).
std::string MeasureEditStream() {
  const std::vector<Edit> edits = MakeEditStream();
  constexpr int kReps = 3;
  double scratch_s = 1e300;
  double maintained_s = 1e300;
  BatchStats stats;
  DeltaStats delta;
  for (int rep = 0; rep < kReps; ++rep) {
    scratch_s = std::min(scratch_s, TimeScratchStream(edits));
    MaintainedConflictMatrix matrix(MakeOptions());
    matrix.Assign(MakeReads(), MakeUpdates());
    matrix.engine().ResetStats();
    maintained_s = std::min(maintained_s, TimeMaintainedStream(edits, &matrix));
    stats = matrix.engine().stats();
    delta = matrix.delta_stats();
  }
  const double speedup = scratch_s / maintained_s;
  char buffer[512];
  snprintf(buffer, sizeof(buffer),
           "\"edit_stream\":{\"matrix\":%zu,\"edits\":%zu,"
           "\"scratch_ms\":%.2f,\"maintained_ms\":%.2f,\"speedup\":%.2f,"
           "\"pairs_requested\":%llu,\"pairs_solved\":%llu,"
           "\"cells_recomputed\":%llu}",
           kMatrix, kEdits, scratch_s * 1e3, maintained_s * 1e3, speedup,
           static_cast<unsigned long long>(stats.pairs_total),
           static_cast<unsigned long long>(stats.cache_misses),
           static_cast<unsigned long long>(delta.cells_recomputed));
  std::cerr << "edit stream (" << kEdits << " edits, " << kMatrix << "x"
            << kMatrix << "): scratch " << scratch_s * 1e3 << " ms, maintained "
            << maintained_s * 1e3 << " ms, speedup " << speedup << "x\n";
  return buffer;
}

}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, measures the
/// scratch-vs-maintained edit stream, and dumps metrics + the comparison
/// to BENCH_incremental.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string edit_stream = xmlup::MeasureEditStream();
  xmlup::bench::DumpObs("incremental", edit_stream);
  return 0;
}
