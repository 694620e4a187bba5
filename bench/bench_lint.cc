// Lint-engine benchmarks (E16): throughput of the full multi-pass
// analyzer over generated straight-line programs, cold (a new Linter per
// program) and warm (one Linter, hence one warm PatternStore, over many
// programs that share patterns — the compiler-frontend workload: one
// Linter, many translation units). Branching patterns under a small search budget keep the
// truncated-verdict share non-zero, so the soundness path is part of what
// is measured.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "analysis/lint.h"
#include "common/random.h"
#include "workload/program_generator.h"

namespace xmlup {
namespace {

constexpr size_t kPrograms = 24;
constexpr size_t kStatementsPer = 16;

LintOptions MakeLintOptions() {
  LintOptions options;
  // Small budget: branching reads routinely truncate, exercising the
  // Unknown-as-dependence path the soundness guard relies on.
  options.batch.detector.search.max_nodes = 4;
  options.batch.num_threads = 4;
  return options;
}

std::vector<Program> MakePrograms() {
  ProgramGenOptions options;
  options.num_statements = kStatementsPer;
  options.num_variables = 2;
  options.repeat_read_prob = 0.4;  // CSE + dead-read opportunities
  options.pattern.size = 4;
  options.pattern.branch_prob = 0.5;  // branching reads → some Unknowns
  options.pattern.alphabet = {bench::Symbols()->Intern("a"),
                              bench::Symbols()->Intern("b"),
                              bench::Symbols()->Intern("c")};
  RandomProgramGenerator gen(bench::Symbols(), options);
  Rng rng(4242);
  std::vector<Program> programs;
  for (size_t i = 0; i < kPrograms; ++i) programs.push_back(gen.Generate(&rng));
  return programs;
}

void BM_LintProgramColdEngine(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  for (auto _ : state) {
    const Linter linter(MakeLintOptions());
    const LintResult result = linter.Lint(programs[0]);
    benchmark::DoNotOptimize(result.diagnostics.data());
  }
  state.counters["statements"] = static_cast<double>(kStatementsPer);
}
BENCHMARK(BM_LintProgramColdEngine)->Unit(benchmark::kMillisecond);

void BM_LintCorpusWarmEngine(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  for (auto _ : state) {
    size_t diagnostics = 0;
    for (const Program& program : programs) {
      diagnostics += linter.Lint(program).diagnostics.size();
    }
    benchmark::DoNotOptimize(diagnostics);
  }
  state.counters["programs"] = static_cast<double>(kPrograms);
}
BENCHMARK(BM_LintCorpusWarmEngine)->Unit(benchmark::kMillisecond);

void BM_RenderSarif(benchmark::State& state) {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  const LintResult result = linter.Lint(programs[0]);
  for (auto _ : state) {
    const std::string sarif = RenderLintSarif(programs[0], result);
    benchmark::DoNotOptimize(sarif.data());
  }
}
BENCHMARK(BM_RenderSarif)->Unit(benchmark::kMicrosecond);

}  // namespace

/// Harness-timed corpus lint for BENCH_lint.json: one warm Linter over the
/// whole corpus, reporting throughput and the diagnostic/Unknown mix the
/// acceptance criteria track.
std::string MeasureLintCorpus() {
  const std::vector<Program> programs = MakePrograms();
  const Linter linter(MakeLintOptions());
  size_t statements = 0;
  size_t diagnostics = 0;
  size_t unknown = 0;
  size_t pairs = 0;
  size_t fixits = 0;
  // Warm-up pass fills the store; the timed pass is the steady state.
  for (const Program& program : programs) linter.Lint(program);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Program& program : programs) {
    const LintResult result = linter.Lint(program);
    statements += result.stats.statements;
    diagnostics += result.diagnostics.size();
    unknown += result.stats.unknown_verdicts;
    pairs += result.stats.pairs_checked;
    for (const Diagnostic& d : result.diagnostics) {
      fixits += d.fixit.has_value() ? 1 : 0;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double unknown_share = pairs == 0 ? 0.0 : 1.0 * unknown / pairs;
  char buffer[512];
  snprintf(buffer, sizeof(buffer),
           "\"lint\":{\"programs\":%zu,\"statements\":%zu,"
           "\"diagnostics\":%zu,\"fixits\":%zu,\"pairs_checked\":%zu,"
           "\"unknown_share\":%.4f,\"seconds\":%.4f,"
           "\"diagnostics_per_sec\":%.1f}",
           kPrograms, statements, diagnostics, fixits, pairs, unknown_share,
           seconds, seconds == 0 ? 0.0 : diagnostics / seconds);
  std::cerr << "lint corpus: " << kPrograms << " programs, " << diagnostics
            << " diagnostics in " << seconds * 1e3 << " ms (unknown share "
            << unknown_share << ")\n";
  return buffer;
}

}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, measures the
/// warm-corpus lint, and dumps metrics to BENCH_lint.json for CI.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string corpus = xmlup::MeasureLintCorpus();
  xmlup::bench::DumpObs("lint", corpus);
  return 0;
}
