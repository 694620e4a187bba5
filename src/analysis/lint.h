#ifndef XMLUP_ANALYSIS_LINT_H_
#define XMLUP_ANALYSIS_LINT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/program.h"
#include "common/result.h"
#include "conflict/batch_detector.h"

namespace xmlup {

/// Static lint engine over straight-line update programs — the paper's §1
/// application made actionable: instead of a boolean conflict oracle, a
/// multi-pass analyzer that turns the detector stack's verdicts (batch
/// engine, dependence edges, commutativity certificates, containment, DTD
/// checks) into structured diagnostics a program author (or a compiler
/// frontend) can act on, each with an optional machine-applicable fix-it.
///
/// Soundness policy, enforced by every pass: an `Unknown` (bounded-search
/// truncation) or error verdict is always treated as a dependence/conflict.
/// No removal or reorder fix-it is ever derived from an Unknown verdict;
/// instead the pair is surfaced by the `truncated-verdict` rule so budget
/// exhaustion is visible, never silently dropped.

enum class LintSeverity {
  kError,    // the program is wrong whenever the statement executes
  kWarning,  // sound transformation opportunity or parallelism hazard
  kInfo,     // advisory: truncation notices, partition report
};

std::string_view LintSeverityName(LintSeverity severity);

/// Stable rule identifiers (also the SARIF rule ids).
enum class LintRule {
  /// A statement the detector stack cannot model (ToUpdateOp fails: a
  /// delete selecting the root, an insert with null or rootless content).
  /// Error; blocks no other pass but is conservatively dependent on
  /// everything on its variable.
  kMalformedUpdate,
  /// A read whose result variable is overwritten by a later read before
  /// any use; reads are effect-free, so removal is unconditionally sound.
  kDeadRead,
  /// A read identical to an earlier read with no conflicting update in
  /// between (SelectReadAliases, the Optimizer's CSE); fix-it aliases it.
  kRedundantRead,
  /// An insert whose content is unconditionally deleted by a later delete
  /// with no intervening observer (containment-based); fix-it removes it.
  kShadowedUpdate,
  /// An update/update pair on one variable with no commutativity
  /// certificate: unsafe to reorder or parallelize.
  kUpdateRace,
  /// An insert that violates the supplied DTD every time it applies.
  kDtdViolation,
  /// A pair whose verdict is Unknown because the bounded search ran out of
  /// budget: treated as conflicting everywhere, surfaced here.
  kTruncatedVerdict,
  /// The parallel-safety partitioner's report: maximal independent batches
  /// and the achievable width; fix-it is the batched reorder.
  kParallelPartition,
};

struct LintRuleInfo {
  std::string_view id;           // kebab-case stable id
  std::string_view description;  // one-line SARIF shortDescription
  LintSeverity severity;
};

const LintRuleInfo& GetLintRuleInfo(LintRule rule);

/// All rules in a fixed order (the SARIF `rules` array; `ruleIndex` fields
/// index into this).
const std::vector<LintRule>& AllLintRules();

/// A machine-applicable program transformation attached to a diagnostic.
/// Every fix-it emitted by the linter preserves observable semantics
/// (final tree values plus final result-variable values) — validated by
/// the randomized execution oracle in tests/lint_oracle_test.cc.
struct LintFixIt {
  enum class Kind {
    kRemoveStatement,  // delete `statement` from the program
    kAliasRead,        // set statement `statement`'s alias_of = `alias_of`
    kReorder,          // execute in `schedule` order (a permutation)
  };

  Kind kind = Kind::kRemoveStatement;
  size_t statement = 0;
  size_t alias_of = 0;           // kAliasRead only
  std::vector<size_t> schedule;  // kReorder only
  std::string description;
};

/// Applies a fix-it to `program`, returning the transformed program.
/// Fails (never aborts) when the fix-it does not match the program — e.g.
/// removing a statement another statement aliases, or reordering a program
/// that already carries CSE annotations.
Result<Program> ApplyLintFixIt(const Program& program, const LintFixIt& fixit);

struct Diagnostic {
  LintRule rule = LintRule::kMalformedUpdate;
  LintSeverity severity = LintSeverity::kWarning;
  /// Statement indices; the first is the primary location.
  std::vector<size_t> statements;
  std::string message;
  std::optional<LintFixIt> fixit;
};

/// Output of the parallel-safety partitioner: statements grouped into
/// batches such that (a) batch order is a topological order of the
/// conservative dependence DAG and (b) statements within one batch are
/// pairwise independent (no edge — Unknown verdicts count as edges), so
/// each batch may run with one thread per statement.
struct ParallelPartition {
  std::vector<std::vector<size_t>> batches;
  /// max batch size — the achievable parallel width.
  size_t width = 0;
};

struct LintStats {
  size_t statements = 0;
  /// Read/update pairs routed through the batch conflict-matrix engine.
  size_t pairs_checked = 0;
  /// Pairs among them whose verdict was Unknown (truncated search).
  size_t unknown_verdicts = 0;
  /// Update/update pairs submitted to the commutativity certifier.
  size_t update_pairs_checked = 0;
  /// Conservative dependence edges (conflicts, Unknowns, result-variable
  /// write-after-write, alias ordering).
  size_t dependence_edges = 0;
  /// Snapshot of the engine's cumulative pair/dedup counters after this
  /// run.
  BatchStats batch;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  ParallelPartition partition;
  LintStats stats;

  bool HasErrors() const {
    for (const Diagnostic& d : diagnostics) {
      if (d.severity == LintSeverity::kError) return true;
    }
    return false;
  }
};

struct LintOptions {
  /// Engine configuration: detector options (semantics, search budget),
  /// thread count, shared PatternStore. A schema in `batch.detector.dtd`
  /// drives both the detector's Stage 0 and the dtd-violation pass. On
  /// another SymbolTable than the program's, or against an injected store
  /// bound to another schema, Stage 0 answers every pair with
  /// InvalidArgument, which the dependence graph keeps as a conservative
  /// dependence; a foreign-table schema also makes the dtd-violation pass
  /// report once that the inserts cannot be checked.
  BatchDetectorOptions batch;
  /// Run the parallel-safety partitioner (and emit its report).
  bool partition = true;
};

/// The analyzer. Reusable: the underlying batch engine's pattern store
/// (interned patterns and compiled forms) warms across Lint() calls, and
/// each call solves every distinct read/update pair of its program once;
/// no verdict is kept between calls. Diagnostics are deterministic across
/// runs and thread counts (the engine guarantees verdict determinism;
/// passes iterate in statement order).
class Linter {
 public:
  explicit Linter(LintOptions options = {});

  LintResult Lint(const Program& program) const;

 private:
  LintOptions options_;
  mutable BatchConflictDetector batch_;
};

/// --- Renderers ---

struct LintRenderOptions {
  /// Artifact URI reported in SARIF/text locations.
  std::string artifact_uri = "program.xup";
  /// Statement index → 1-based source line (from ParseProgram). When null,
  /// statement i is reported at line i+1 (its line in the listing).
  const std::vector<int>* lines = nullptr;
};

/// Compiler-style text: one `uri:line: severity[rule]: message` per
/// diagnostic plus a summary trailer.
std::string RenderLintText(const Program& program, const LintResult& result,
                           const LintRenderOptions& options = {});

/// Single JSON object with diagnostics, partition and stats.
std::string RenderLintJson(const Program& program, const LintResult& result,
                           const LintRenderOptions& options = {});

/// SARIF 2.1.0 (loads in standard viewers: VS Code SARIF viewer, GitHub
/// code scanning). Severity maps kError→error, kWarning→warning,
/// kInfo→note; fix-its ride in each result's property bag.
std::string RenderLintSarif(const Program& program, const LintResult& result,
                            const LintRenderOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_LINT_H_
