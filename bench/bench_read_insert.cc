// Experiment E4 (Theorem 2 / Corollary 2): read-insert conflict detection
// for linear reads is polynomial in |R|, |I| and |X|. Series: |R| sweep,
// |I| sweep, |X| sweep, branching-insert ablation.

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "conflict/read_insert.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"

namespace xmlup {
namespace {

Pattern RandomInsertPattern(size_t size, uint64_t seed, bool branching) {
  PatternGenOptions options;
  options.size = size;
  options.alphabet = {bench::Symbols()->Intern("a"),
                      bench::Symbols()->Intern("b"),
                      bench::Symbols()->Intern("c")};
  RandomPatternGenerator gen(bench::Symbols(), options);
  Rng rng(seed);
  return branching ? gen.GenerateBranching(&rng) : gen.GenerateLinear(&rng);
}

Tree RandomContent(size_t size, uint64_t seed) {
  TreeGenOptions options;
  options.target_size = size;
  options.alphabet = {bench::Symbols()->Intern("a"),
                      bench::Symbols()->Intern("b"),
                      bench::Symbols()->Intern("c")};
  RandomTreeGenerator gen(bench::Symbols(), options);
  Rng rng(seed);
  return gen.Generate(&rng);
}

void RunDetection(benchmark::State& state, size_t read_size,
                  size_t insert_size, size_t content_size,
                  bool branching_insert, bool build_witness = false) {
  const Pattern read = bench::RandomLinear(read_size, 31);
  const Pattern ins = RandomInsertPattern(insert_size, 37, branching_insert);
  const Tree x = RandomContent(content_size, 41);
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = DetectLinearReadInsertConflict(
        read, ins, x, ConflictSemantics::kNode, build_witness);
    conflicts += (result.ok() && result->conflict()) ? 1 : 0;
    benchmark::DoNotOptimize(conflicts);
  }
}

void BM_ReadInsert_ReadSizeSweep(benchmark::State& state) {
  RunDetection(state, static_cast<size_t>(state.range(0)), 6, 8, false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadInsert_ReadSizeSweep)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_ReadInsert_InsertSizeSweep(benchmark::State& state) {
  RunDetection(state, 8, static_cast<size_t>(state.range(0)), 8, false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadInsert_InsertSizeSweep)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_ReadInsert_ContentSizeSweep(benchmark::State& state) {
  RunDetection(state, 8, 6, static_cast<size_t>(state.range(0)), false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadInsert_ContentSizeSweep)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_ReadInsert_WithWitnessSynthesis(benchmark::State& state) {
  RunDetection(state, static_cast<size_t>(state.range(0)), 6, 8, false,
               /*build_witness=*/true);
}
BENCHMARK(BM_ReadInsert_WithWitnessSynthesis)
    ->RangeMultiplier(2)
    ->Range(4, 128);

void BM_ReadInsert_BranchingInsert(benchmark::State& state) {
  // Corollary 2 ablation: branching insert patterns cost like their
  // mainline.
  RunDetection(state, 8, static_cast<size_t>(state.range(0)), 8, true);
}
BENCHMARK(BM_ReadInsert_BranchingInsert)->RangeMultiplier(2)->Range(8, 64);

}  // namespace
}  // namespace xmlup
