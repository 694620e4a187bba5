// lint_corpus: Engine::Lint over a seeded corpus of generated straight-line
// programs under a schema — the paper's §1 compiler scenario. Reads are
// linear, so the PTIME detectors, the automata caches, Stage 0 type
// pruning and the lint passes do all the work and the bounded search none.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/random.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "workload/program_generator.h"
#include "workload/tree_generator.h"
#include "workloads.h"

namespace xbench {
namespace {

using xmlup::Engine;
using xmlup::LintResult;
using xmlup::PatternRef;
using xmlup::Program;
using xmlup::Result;
using xmlup::Statement;
using xmlup::UpdateOp;

// The schema of workloads/typed_reference.json: two sealed subsystems (a1-
// and a2-chains) under a sealed root that share only the a3 leaf, so part
// of the read/delete pairs type-prune (inserts never do).
constexpr const char* kSchema =
    "allow a1 : a1 a3\n"
    "allow a2 : a2 a3\n";
constexpr size_t kAlphabetSize = 4;

constexpr size_t kStatements = 16;
constexpr size_t kVariables = 2;
constexpr double kRepeatReadProb = 0.4;
constexpr size_t kPatternSize = 4;
constexpr double kWildcardProb = 0.2;
constexpr double kDescendantProb = 0.4;

// Warm-up programs are drawn from the same stream as the timed ones and
// precede them, so the timed part sees new programs on a warm engine.
constexpr size_t kWarmupPrograms = 200;
// The first kTallyPrograms timed programs always run; they are re-linted
// on a second engine and their read/update pairs are re-detected singly
// (witnesses checked, verdicts tallied).
constexpr size_t kTallyPrograms = 40;
// Peak memory is read after this many programs.
constexpr size_t kRssPrograms = 8000;

struct State {
  explicit State(uint64_t seed) : rng(seed) {}

  std::shared_ptr<const xmlup::Dtd> dtd;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<xmlup::RandomProgramGenerator> programs;
  /// Continues after the warm-up programs.
  xmlup::Rng rng;
  double intern_us = 0;
  double store_hit_rate = 0;
};

std::unique_ptr<Engine> MakeEngine(std::shared_ptr<const xmlup::Dtd> dtd) {
  xmlup::EngineOptions options;
  options.batch.num_threads = 1;
  options.dtd = std::move(dtd);
  return std::make_unique<Engine>(options.dtd->symbols(), options);
}

std::shared_ptr<const xmlup::Dtd> ParseSchema(Tracer& tracer) {
  ScopedSpan span(tracer, "dtd");
  return std::make_shared<const xmlup::Dtd>(
      xmlup::Dtd::Parse(kSchema, std::make_shared<xmlup::SymbolTable>())
          .value());
}

std::unique_ptr<State> SetUp(const RunConfig& config, Tracer& tracer) {
  ScopedSpan setup_span(tracer, "bench.setup");
  CounterWindow window;
  window.Begin();
  auto state = std::make_unique<State>(config.seed);
  state->dtd = ParseSchema(tracer);
  state->engine = MakeEngine(state->dtd);
  Engine& engine = *state->engine;

  xmlup::ProgramGenOptions options;
  options.num_statements = kStatements;
  options.num_variables = kVariables;
  options.repeat_read_prob = kRepeatReadProb;
  options.pattern.size = kPatternSize;
  options.pattern.wildcard_prob = kWildcardProb;
  options.pattern.descendant_prob = kDescendantProb;
  options.pattern.alphabet = xmlup::RandomTreeGenerator::MakeAlphabet(
      engine.symbols().get(), kAlphabetSize);
  state->programs = std::make_unique<xmlup::RandomProgramGenerator>(
      engine.symbols(), options);

  // Warm-up: bind each program's patterns to the engine (as a frontend
  // does when it parses a program), then lint it.
  for (size_t i = 0; i < kWarmupPrograms; ++i) {
    const Program program = state->programs->Generate(&state->rng);
    for (const Statement& s : program.statements()) {
      ScopedSpan span(tracer, "pattern");
      const int64_t start = NowNs();
      engine.Intern(s.pattern);
      state->intern_us += static_cast<double>(NowNs() - start) / 1e3;
    }
    ScopedSpan span(tracer, "analysis");
    engine.Lint(program);
  }
  window.End();
  state->store_hit_rate =
      HitRate(window, "pattern_store.hits", "pattern_store.misses");
  return state;
}

/// Checks that hold for every lint result: statement accounting, a
/// partition that schedules every statement once, fix-its that apply.
std::string CheckLint(const Program& program, const LintResult& result) {
  if (result.stats.statements != program.size()) {
    return "stats.statements != program size";
  }
  std::vector<int> seen(program.size(), 0);
  for (const auto& batch : result.partition.batches) {
    for (size_t s : batch) {
      if (s >= seen.size() || seen[s]++ > 0) return "partition repeats a statement";
    }
  }
  for (int n : seen) {
    if (n != 1) return "partition misses a statement";
  }
  for (const xmlup::Diagnostic& d : result.diagnostics) {
    if (d.fixit.has_value() &&
        !xmlup::ApplyLintFixIt(program, *d.fixit).ok()) {
      return "fix-it does not apply: " + d.fixit->description;
    }
  }
  return "";
}

std::optional<UpdateOp> ToUpdate(const Statement& s) {
  if (s.kind == Statement::Kind::kInsert && s.content != nullptr) {
    return UpdateOp::MakeInsert(s.pattern, s.content);
  }
  if (s.kind == Statement::Kind::kDelete) {
    Result<UpdateOp> op = UpdateOp::MakeDelete(s.pattern);
    if (op.ok()) return *std::move(op);
  }
  return std::nullopt;
}

}  // namespace

void RunLintCorpus(Context& ctx) {
  Samples setup_seconds;
  const std::unique_ptr<State> state = RepeatSetup<State>(
      [&] { return SetUp(ctx.config, ctx.tracer); }, &ctx.host,
      &setup_seconds);
  Engine& engine = *state->engine;
  // Second engine for the tally programs: the same verdicts and
  // diagnostics must come out of a different cache history.
  const std::unique_ptr<Engine> reference = MakeEngine(state->dtd);

  TimedPart timed(ctx.config.seconds, kTallyPrograms, kRssPrograms,
                  &ctx.host);
  Samples lint_us;
  PairChecks checks;
  uint64_t pairs = 0;
  uint64_t unknown = 0;
  const size_t symbols_before = engine.symbols()->size();

  while (!timed.Expired()) {
    const Program program = state->programs->Generate(&state->rng);
    const size_t index = timed.ops();
    timed.Begin();
    std::optional<LintResult> result;
    {
      ScopedSpan span(ctx.tracer, "analysis");
      result.emplace(engine.Lint(program));
    }
    lint_us.Add(timed.End());
    pairs += result->stats.pairs_checked;
    unknown += result->stats.unknown_verdicts;

    ScopedSpan check(ctx.tracer, "bench.check");
    std::string why = CheckLint(program, *result);
    if (index < kTallyPrograms) {
      for (const xmlup::Diagnostic& d : result->diagnostics) {
        checks.tally.Add("lint." +
                         std::string(xmlup::GetLintRuleInfo(d.rule).id));
      }
      checks.tally.Add("lint.pairs", result->stats.pairs_checked);
      checks.tally.Add("lint.unknown", result->stats.unknown_verdicts);
      if (why.empty() &&
          xmlup::RenderLintText(program, reference->Lint(program)) !=
              xmlup::RenderLintText(program, *result)) {
        why = "diagnostics differ on a second engine";
      }
      // Every same-variable read/update pair, detected singly: witnesses
      // are checked and the deciding stage is attributed.
      const auto& statements = program.statements();
      for (const Statement& read : statements) {
        if (read.kind != Statement::Kind::kRead) continue;
        const PatternRef ref = engine.Intern(read.pattern);
        for (const Statement& s : statements) {
          if (s.target_var != read.target_var) continue;
          const std::optional<UpdateOp> update = ToUpdate(s);
          if (!update.has_value()) continue;
          const std::string pair_why =
              CheckPair(ctx, engine, ref, engine.Bind(*update), &checks);
          if (why.empty()) why = pair_why;
        }
      }
    }
    if (!why.empty()) {
      ctx.report.Fail("program " + std::to_string(index) + ": " + why);
    }
  }
  ctx.report.AddAttempted(timed.ops());

  ctx.report.Note("tally (first " + std::to_string(kTallyPrograms) +
                  " programs): " + checks.tally.ToString() +
                  " trees_checked=" + std::to_string(checks.trees_checked));
  ReportEndToEnd(ctx, setup_seconds, timed,
                 1.0 - Ratio(static_cast<double>(unknown),
                             static_cast<double>(pairs)));

  LayerInputs layers;
  layers.intern_us = state->intern_us;
  layers.store_hit_rate = state->store_hit_rate;
  layers.checks = &checks;
  layers.pairs_per_program =
      Ratio(static_cast<double>(pairs), static_cast<double>(timed.ops()));
  layers.lint_us = lint_us.Quantile(0.5);
  layers.engine = &engine;
  layers.symbols_before = symbols_before;
  ReportPerLayer(ctx, timed, layers);
}

}  // namespace xbench
