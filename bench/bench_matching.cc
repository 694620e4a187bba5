// Experiment E2 (§4.1 + REMARK): weak/strong matching of linear patterns
// is polynomial; ablation of the paper's NFA-intersection construction
// (MatchViaNfa, the reference: regexes, Thompson NFAs and a product BFS
// per call) against the dynamic-programming matcher the detectors run
// (MatchDp on the chains CompiledPattern precomputes — the per-edge cost
// of a linear detector). Series: pattern length sweep and star-density
// sweep for both matchers.

#include <cstdint>
#include <utility>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "match/dp_matcher.h"
#include "match/matching.h"

namespace xmlup {
namespace {

/// Two random linear patterns of state.range(0) nodes whose roots can
/// share a symbol, so both matchers get past the first symbol and the
/// series time the search, not its first-symbol rejection.
std::pair<Pattern, Pattern> RootedPair(benchmark::State& state,
                                       double wildcard_prob,
                                       double descendant_prob) {
  const size_t size = static_cast<size_t>(state.range(0));
  Pattern l1 = bench::RandomLinear(size, 11, wildcard_prob, descendant_prob);
  for (uint64_t seed = 13;; ++seed) {
    Pattern l2 =
        bench::RandomLinear(size, seed, wildcard_prob, descendant_prob);
    if (l1.is_wildcard(l1.root()) || l2.is_wildcard(l2.root()) ||
        l1.label(l1.root()) == l2.label(l2.root())) {
      return {std::move(l1), std::move(l2)};
    }
  }
}

void RunNfa(benchmark::State& state, double wildcard_prob,
            double descendant_prob) {
  const auto [l1, l2] = RootedPair(state, wildcard_prob, descendant_prob);
  size_t matches = 0;
  for (auto _ : state) {
    matches += MatchViaNfa(l1, l2, /*weak=*/true).matches ? 1 : 0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(state.range(0));
}

void RunDp(benchmark::State& state, double wildcard_prob,
           double descendant_prob) {
  const auto [p1, p2] = RootedPair(state, wildcard_prob, descendant_prob);
  const CompiledPattern l1(p1);
  const CompiledPattern l2(p2);
  size_t matches = 0;
  for (auto _ : state) {
    matches += MatchDp(l1.chain(), l2.chain(), /*weak=*/true).matches ? 1 : 0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetComplexityN(state.range(0));
}

void BM_MatchNfa(benchmark::State& state) { RunNfa(state, 0.2, 0.4); }
BENCHMARK(BM_MatchNfa)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oNSquared);

void BM_MatchDp(benchmark::State& state) { RunDp(state, 0.2, 0.4); }
BENCHMARK(BM_MatchDp)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oNSquared);

// Star-density ablation: all-wildcard descendant-heavy patterns are the
// worst case for the product construction (maximum nondeterminism).
void BM_MatchNfaStarHeavy(benchmark::State& state) { RunNfa(state, 0.9, 0.8); }
BENCHMARK(BM_MatchNfaStarHeavy)->RangeMultiplier(2)->Range(4, 128);

void BM_MatchDpStarHeavy(benchmark::State& state) { RunDp(state, 0.9, 0.8); }
BENCHMARK(BM_MatchDpStarHeavy)->RangeMultiplier(2)->Range(4, 128);

void BM_StrongVsWeak(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Pattern l1 = bench::RandomLinear(size, 17);
  const Pattern l2 = bench::RandomLinear(size, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchStrongly(l1, l2).matches);
  }
}
BENCHMARK(BM_StrongVsWeak)->RangeMultiplier(2)->Range(4, 256);

}  // namespace
}  // namespace xmlup
