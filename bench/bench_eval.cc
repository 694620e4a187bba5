// Experiment E1 (§3, Figure 1): read/insert/delete evaluation cost is
// polynomial — linear in |t| for fixed patterns and linear in |p| for a
// fixed tree. Series: Evaluate over catalog documents of growing size with
// the Figure 1 patterns; pattern-size sweep on a fixed document, past one
// 64-bit word of pattern nodes; insert and delete operation throughput.

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "eval/incremental_read.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

void BM_EvaluateCatalogScaling(benchmark::State& state) {
  const size_t books = static_cast<size_t>(state.range(0));
  const Tree catalog = bench::Catalog(books, /*seed=*/1);
  const Pattern restock_condition = bench::Xp("catalog/book[.//low]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Evaluate(restock_condition, catalog));
  }
  state.SetComplexityN(static_cast<int64_t>(catalog.size()));
  state.counters["tree_nodes"] = static_cast<double>(catalog.size());
}
BENCHMARK(BM_EvaluateCatalogScaling)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_EvaluatePatternSizeScaling(benchmark::State& state) {
  const size_t pattern_size = static_cast<size_t>(state.range(0));
  const Tree catalog = bench::Catalog(500, /*seed=*/2);
  // Linear pattern of the requested size: catalog//*//*...//* .
  Pattern p(bench::Symbols());
  PatternNodeId node = p.CreateRoot(bench::Symbols()->Intern("catalog"));
  for (size_t i = 1; i < pattern_size; ++i) {
    node = p.AddChild(node, kWildcardLabel, Axis::kDescendant);
  }
  p.SetOutput(node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Evaluate(p, catalog));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluatePatternSizeScaling)
    ->DenseRange(2, 130, 16)
    ->Complexity(benchmark::oN);

void BM_ApplyInsert(benchmark::State& state) {
  const size_t books = static_cast<size_t>(state.range(0));
  const Tree catalog = bench::Catalog(books, /*seed=*/3);
  Tree restock(bench::Symbols());
  restock.CreateRoot(bench::Symbols()->Intern("restock"));
  const UpdateOp op = UpdateOp::MakeInsert(
      bench::Xp("catalog/book[.//low]"),
      std::make_shared<const Tree>(std::move(restock)));
  for (auto _ : state) {
    state.PauseTiming();
    Tree work = CopyTree(catalog);
    state.ResumeTiming();
    benchmark::DoNotOptimize(op.ApplyInPlace(&work));
  }
  state.SetComplexityN(static_cast<int64_t>(catalog.size()));
}
BENCHMARK(BM_ApplyInsert)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_ApplyDelete(benchmark::State& state) {
  const size_t books = static_cast<size_t>(state.range(0));
  const Tree catalog = bench::Catalog(books, /*seed=*/4);
  const UpdateOp op =
      UpdateOp::MakeDelete(bench::Xp("catalog/book[.//high]")).value();
  for (auto _ : state) {
    state.PauseTiming();
    Tree work = CopyTree(catalog);
    state.ResumeTiming();
    benchmark::DoNotOptimize(op.ApplyInPlace(&work));
  }
  state.SetComplexityN(static_cast<int64_t>(catalog.size()));
}
BENCHMARK(BM_ApplyDelete)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

// Read maintenance under a stream of inserts: full re-evaluation after
// every update vs the incremental repair a conflict-aware compiler can
// use (§1 motivation). Workload: watch catalog//restock while restock
// nodes are inserted one batch at a time.
void RunMaintenance(benchmark::State& state, bool incremental) {
  const size_t books = static_cast<size_t>(state.range(0));
  const Pattern watched = bench::Xp("catalog//restock");
  Tree restock(bench::Symbols());
  restock.CreateRoot(bench::Symbols()->Intern("restock"));
  const UpdateOp insert = UpdateOp::MakeInsert(
      bench::Xp("catalog/book[.//low]"),
      std::make_shared<const Tree>(std::move(restock)));
  for (auto _ : state) {
    state.PauseTiming();
    Tree catalog = bench::Catalog(books, /*seed=*/5);
    auto read = IncrementalRead::Make(watched, &catalog);
    state.ResumeTiming();
    size_t total = read.ok() ? read->Results().size() : 0;
    for (int round = 0; round < 8; ++round) {
      const UpdateOp::Applied applied = insert.ApplyInPlace(&catalog);
      if (incremental) {
        read->OnInsert(applied.points, applied.copy_roots);
        total += read->Results().size();
      } else {
        total += Evaluate(watched, catalog).size();
      }
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_ReadMaintenanceReevaluate(benchmark::State& state) {
  RunMaintenance(state, /*incremental=*/false);
}
BENCHMARK(BM_ReadMaintenanceReevaluate)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_ReadMaintenanceIncremental(benchmark::State& state) {
  RunMaintenance(state, /*incremental=*/true);
}
BENCHMARK(BM_ReadMaintenanceIncremental)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlup
