// Experiment E1 (§3, Figure 1): read/insert/delete evaluation cost is
// polynomial — linear in the region a pattern can reach for fixed
// patterns and linear in |p| for a fixed tree. Series: Evaluate over
// catalog documents of growing size with the Figure 1 patterns;
// pattern-size sweep on a fixed document, past one 64-bit word of pattern
// nodes; an anchored path on documents that grow outside its region;
// witness-sized trees, for the fixed per-call cost; insert and delete
// operation throughput.

#include <iterator>
#include <string>
#include <vector>

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

/// A document shaped like xbench's merge_edits seeds, with `anchors`
/// anchors s0, s1, ... under <r>, each holding 60 a groups of 1-3 b, 30 c
/// groups of 0-2 d and 10 e/f pairs: about 275 nodes per anchor.
Tree MergeDocument(size_t anchors, uint64_t seed) {
  const auto& symbols = bench::Symbols();
  Rng rng(seed);
  Tree t(symbols);
  const NodeId root = t.CreateRoot(symbols->Intern("r"));
  for (size_t k = 0; k < anchors; ++k) {
    const NodeId s = t.AddChild(root, symbols->Intern("s" + std::to_string(k)));
    for (int i = 0; i < 60; ++i) {
      const NodeId a = t.AddChild(s, symbols->Intern("a"));
      for (uint64_t j = 0, m = 1 + rng.NextBounded(3); j < m; ++j) {
        t.AddChild(a, symbols->Intern("b"));
      }
    }
    for (int i = 0; i < 30; ++i) {
      const NodeId c = t.AddChild(s, symbols->Intern("c"));
      for (uint64_t j = 0, m = rng.NextBounded(3); j < m; ++j) {
        t.AddChild(c, symbols->Intern("d"));
      }
    }
    for (int i = 0; i < 10; ++i) {
      t.AddChild(t.AddChild(s, symbols->Intern("e")), symbols->Intern("f"));
    }
  }
  return t;
}

// merge_edits' anchored writes: r/s3/a/b reaches the root, s3 and s3's a/b
// groups whatever the document's size, so the time should stay nearly flat
// (it grows only with the root's fan-out) on 2k, 20k and 200k nodes.
void BM_EvaluateAnchoredPath(benchmark::State& state) {
  const Tree doc = MergeDocument(static_cast<size_t>(state.range(0)), 7);
  const Pattern path = bench::Xp("r/s3/a/b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Evaluate(path, doc));
  }
  state.counters["tree_nodes"] = static_cast<double>(doc.size());
}
BENCHMARK(BM_EvaluateAnchoredPath)->Arg(8)->Arg(80)->Arg(800);

// Witness-sized trees of 5-30 nodes: the Lemma 1 checks evaluate patterns
// on trees like these about half a million times per branching_detect
// run, so this series guards the fixed cost of one call.
void BM_EvaluateSmallTree(benchmark::State& state) {
  TreeGenOptions options;
  options.target_size = static_cast<size_t>(state.range(0));
  options.alphabet = {bench::Symbols()->Intern("a"),
                      bench::Symbols()->Intern("b"),
                      bench::Symbols()->Intern("c")};
  const RandomTreeGenerator generator(bench::Symbols(), options);
  Rng rng(6);
  std::vector<Tree> trees;
  size_t nodes = 0;
  for (int i = 0; i < 8; ++i) {
    trees.push_back(generator.Generate(&rng));
    nodes += trees.back().size();
  }
  const Pattern patterns[] = {bench::RandomLinear(3, 1),
                              bench::RandomLinear(4, 2), bench::Xp("a[b]//c"),
                              bench::Xp("*//b[c]")};
  for (auto _ : state) {
    for (const Tree& t : trees) {
      for (const Pattern& p : patterns) {
        benchmark::DoNotOptimize(Evaluate(p, t));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * trees.size() * std::size(patterns)));
  state.counters["tree_nodes"] =
      static_cast<double>(nodes) / static_cast<double>(trees.size());
}
BENCHMARK(BM_EvaluateSmallTree)->Arg(5)->Arg(10)->Arg(30);

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
