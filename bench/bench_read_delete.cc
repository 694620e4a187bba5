// Experiment E3 (Theorem 1 / Corollary 1): read-delete conflict detection
// for linear reads is polynomial in |R| and |D|, and a branching delete
// costs the same as its mainline. Series: |R| sweep, |D| sweep, linear vs
// branching delete, with and without witness synthesis.

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "conflict/read_delete.h"
#include "workload/pattern_generator.h"

namespace xmlup {
namespace {

Pattern RandomDelete(size_t size, uint64_t seed, bool branching) {
  PatternGenOptions options;
  options.size = size;
  options.alphabet = {bench::Symbols()->Intern("a"),
                      bench::Symbols()->Intern("b"),
                      bench::Symbols()->Intern("c")};
  RandomPatternGenerator gen(bench::Symbols(), options);
  Rng rng(seed);
  for (;;) {
    Pattern p = branching ? gen.GenerateBranchingNonRootOutput(&rng)
                          : gen.GenerateLinear(&rng);
    if (p.output() != p.root()) return p;
  }
}

void RunDetection(benchmark::State& state, size_t read_size,
                  size_t delete_size, bool branching_delete,
                  bool build_witness = false) {
  const Pattern read = bench::RandomLinear(read_size, 23);
  const Pattern del = RandomDelete(delete_size, 29, branching_delete);
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = DetectLinearReadDeleteConflict(
        read, del, ConflictSemantics::kNode, build_witness);
    conflicts += (result.ok() && result->conflict()) ? 1 : 0;
    benchmark::DoNotOptimize(conflicts);
  }
}

void BM_ReadDelete_ReadSizeSweep(benchmark::State& state) {
  RunDetection(state, static_cast<size_t>(state.range(0)), 6, false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadDelete_ReadSizeSweep)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_ReadDelete_DeleteSizeSweep(benchmark::State& state) {
  RunDetection(state, 8, static_cast<size_t>(state.range(0)), false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadDelete_DeleteSizeSweep)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_ReadDelete_LinearDelete(benchmark::State& state) {
  RunDetection(state, 8, static_cast<size_t>(state.range(0)), false);
}
BENCHMARK(BM_ReadDelete_LinearDelete)->RangeMultiplier(2)->Range(8, 64);

void BM_ReadDelete_BranchingDelete(benchmark::State& state) {
  // Corollary 1: only the mainline matters, so branching deletes of the
  // same size should cost no more.
  RunDetection(state, 8, static_cast<size_t>(state.range(0)), true);
}
BENCHMARK(BM_ReadDelete_BranchingDelete)->RangeMultiplier(2)->Range(8, 64);

void BM_ReadDelete_WithWitnessSynthesis(benchmark::State& state) {
  // Detection plus witness construction + Lemma 1 re-verification — the
  // full constructive pipeline (costlier: verification evaluates patterns
  // on the synthesized tree).
  RunDetection(state, static_cast<size_t>(state.range(0)), 6, false,
               /*build_witness=*/true);
}
BENCHMARK(BM_ReadDelete_WithWitnessSynthesis)
    ->RangeMultiplier(2)
    ->Range(4, 128);

}  // namespace
}  // namespace xmlup
