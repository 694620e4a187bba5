// Experiment E5 (Theorems 3/5, Lemma 11): the exact bounded-witness search
// grows super-exponentially in the node budget, while the PTIME detectors
// answer the same linear-pattern instances orders of magnitude faster —
// the "who wins" comparison between the NP-side and PTIME-side of the
// paper. Series: tree-space size vs node budget; brute-force decision time
// vs PTIME decision time on identical instances.

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "conflict/bounded_search.h"
#include "conflict/read_insert.h"
#include "conflict/reparent.h"

namespace xmlup {
namespace {

void BM_TreeEnumerationSpace(benchmark::State& state) {
  // Times the shape-table build itself (two labels), not the cached table
  // the searches share.
  const size_t max_nodes = static_cast<size_t>(state.range(0));
  uint64_t count = 0;
  for (auto _ : state) {
    const ShapeTable table =
        ShapeTable::Build(/*alphabet_size=*/2, max_nodes, 4'000'000);
    count = table.count();
    benchmark::DoNotOptimize(count);
  }
  state.counters["trees"] = static_cast<double>(count);
}
BENCHMARK(BM_TreeEnumerationSpace)->DenseRange(1, 8);

void BM_BruteForceDecision(benchmark::State& state) {
  const size_t max_nodes = static_cast<size_t>(state.range(0));
  // A conflict-free instance: the search must exhaust the whole space.
  const Pattern read = bench::Xp("a/b/q");
  const Pattern ins = bench::Xp("a//c");
  Tree x(bench::Symbols());
  x.CreateRoot(bench::Symbols()->Intern("z"));
  BoundedSearchOptions options;
  options.max_nodes = max_nodes;
  uint64_t checked = 0;
  for (auto _ : state) {
    const BruteForceResult r = BruteForceReadInsertSearch(
        read, ins, x, ConflictSemantics::kNode, options);
    checked = r.trees_checked;
    benchmark::DoNotOptimize(checked);
  }
  state.counters["trees_checked"] = static_cast<double>(checked);
}
BENCHMARK(BM_BruteForceDecision)->DenseRange(1, 6)->Unit(benchmark::kMillisecond);

void BM_PtimeDecisionSameInstance(benchmark::State& state) {
  // The same instance decided by the Theorem 2 algorithm: node budget is
  // irrelevant, cost is polynomial in the (tiny) pattern sizes.
  const Pattern read = bench::Xp("a/b/q");
  const Pattern ins = bench::Xp("a//c");
  Tree x(bench::Symbols());
  x.CreateRoot(bench::Symbols()->Intern("z"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectLinearReadInsertConflict(read, ins, x,
                                       ConflictSemantics::kNode));
  }
}
BENCHMARK(BM_PtimeDecisionSameInstance);

void BM_WitnessShrinking(benchmark::State& state) {
  // Lemma 11 in action: shrink an artificially inflated conflict witness
  // back to polynomial size via marking + reparenting.
  const Pattern read = bench::Xp("x//C");
  const Pattern ins = bench::Xp("x/B");
  Tree x(bench::Symbols());
  x.CreateRoot(bench::Symbols()->Intern("C"));
  // Inflated witness: x root, long pad chain, then the B insertion point
  // deep below more padding.
  Tree witness(bench::Symbols());
  NodeId node = witness.CreateRoot(bench::Symbols()->Intern("x"));
  const Label pad = bench::Symbols()->Intern("pad");
  for (int64_t i = 0; i < state.range(0); ++i) {
    witness.AddChild(node, pad);  // side branches
    node = witness.AddChild(node, pad);
  }
  witness.AddChild(witness.root(), bench::Symbols()->Intern("B"));
  size_t shrunk_size = 0;
  for (auto _ : state) {
    Result<Tree> shrunk = ShrinkReadInsertWitness(read, ins, x, witness);
    if (shrunk.ok()) shrunk_size = shrunk->size();
    benchmark::DoNotOptimize(shrunk_size);
  }
  state.counters["inflated_nodes"] = static_cast<double>(witness.size());
  state.counters["shrunk_nodes"] = static_cast<double>(shrunk_size);
}
BENCHMARK(BM_WitnessShrinking)->RangeMultiplier(4)->Range(4, 1024);

void BM_PaperBoundGrowth(benchmark::State& state) {
  // The complete-decision budget |R|·|I|·(k+1) as pattern sizes grow —
  // the input to the exponential search above.
  const size_t size = static_cast<size_t>(state.range(0));
  const Pattern read = bench::RandomLinear(size, 43, /*wildcard=*/0.5);
  const Pattern ins = bench::RandomLinear(size, 47);
  size_t bound = 0;
  for (auto _ : state) {
    bound = PaperWitnessBound(read, ins);
    benchmark::DoNotOptimize(bound);
  }
  state.counters["witness_bound"] = static_cast<double>(bound);
}
BENCHMARK(BM_PaperBoundGrowth)->RangeMultiplier(2)->Range(2, 32);

}  // namespace
}  // namespace xmlup
