#include "analysis/lint.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dependence_graph.h"
#include "analysis/optimizer.h"
#include "common/string_util.h"
#include "conflict/minimize.h"
#include "dtd/dtd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlup {
namespace {

/// Lint observability: programs/statements seen, diagnostics emitted
/// (total and per rule), and the Unknown-verdict share the truncated-
/// verdict pass surfaces (EXPERIMENTS E16 reports it).
struct LintMetrics {
  obs::Counter& programs;
  obs::Counter& statements;
  obs::Counter& diagnostics;
  obs::Counter& unknown_verdicts;
  std::vector<obs::Counter*> per_rule;  // indexed like AllLintRules()

  static const LintMetrics& Get() {
    static const LintMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new LintMetrics{
          reg.GetCounter("lint.programs"),
          reg.GetCounter("lint.statements"),
          reg.GetCounter("lint.diagnostics"),
          reg.GetCounter("lint.unknown_verdicts"),
          {},
      };
      for (LintRule rule : AllLintRules()) {
        std::string name = "lint.rule.";
        for (char c : GetLintRuleInfo(rule).id) {
          name += c == '-' ? '_' : c;
        }
        m->per_rule.push_back(&reg.GetCounter(name));
      }
      return m;
    }();
    return *metrics;
  }
};

std::string StatementSummary(const Program& program, size_t index) {
  const Statement& s = program.statements()[index];
  switch (s.kind) {
    case Statement::Kind::kRead:
      return "read into '" + s.result_var + "'";
    case Statement::Kind::kInsert:
      return "insert on $" + s.target_var;
    case Statement::Kind::kDelete:
      return "delete on $" + s.target_var;
  }
  return "statement";
}

}  // namespace

std::string_view LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kInfo:
      return "info";
  }
  return "unknown";
}

const LintRuleInfo& GetLintRuleInfo(LintRule rule) {
  static const std::unordered_map<LintRule, LintRuleInfo>* const table = [] {
    auto* t = new std::unordered_map<LintRule, LintRuleInfo>{
        {LintRule::kMalformedUpdate,
         {"malformed-update",
          "Statement the detector stack cannot model (e.g. a delete "
          "selecting the root); conservatively dependent on everything.",
          LintSeverity::kError}},
        {LintRule::kDeadRead,
         {"dead-read",
          "Read whose result variable is overwritten before any use; "
          "reads are effect-free, so removal is sound.",
          LintSeverity::kWarning}},
        {LintRule::kRedundantRead,
         {"redundant-read",
          "Read identical to an earlier read with no conflicting update "
          "in between; can be aliased to the earlier result (CSE).",
          LintSeverity::kWarning}},
        {LintRule::kShadowedUpdate,
         {"shadowed-update",
          "Insert whose content is unconditionally deleted by a later "
          "delete with no intervening observer.",
          LintSeverity::kWarning}},
        {LintRule::kUpdateRace,
         {"non-commuting-update-race",
          "Update/update pair on one variable with no commutativity "
          "certificate: unsafe to reorder or parallelize.",
          LintSeverity::kWarning}},
        {LintRule::kDtdViolation,
         {"dtd-violation",
          "Insert that violates the supplied DTD every time it applies.",
          LintSeverity::kError}},
        {LintRule::kTruncatedVerdict,
         {"truncated-verdict",
          "Bounded search exhausted its budget; the pair is treated as "
          "conflicting (possibly conflicting, never silently dropped).",
          LintSeverity::kInfo}},
        {LintRule::kParallelPartition,
         {"parallel-partition",
          "Parallel-safety partitioner report: maximal independent "
          "batches and the achievable parallel width.",
          LintSeverity::kInfo}},
    };
    return t;
  }();
  auto it = table->find(rule);
  XMLUP_CHECK(it != table->end());
  return it->second;
}

const std::vector<LintRule>& AllLintRules() {
  static const std::vector<LintRule>* const rules = new std::vector<LintRule>{
      LintRule::kMalformedUpdate,   LintRule::kDeadRead,
      LintRule::kRedundantRead,     LintRule::kShadowedUpdate,
      LintRule::kUpdateRace,        LintRule::kDtdViolation,
      LintRule::kTruncatedVerdict,  LintRule::kParallelPartition,
  };
  return *rules;
}

Result<Program> ApplyLintFixIt(const Program& program,
                               const LintFixIt& fixit) {
  const auto& statements = program.statements();
  const size_t n = statements.size();
  switch (fixit.kind) {
    case LintFixIt::Kind::kRemoveStatement: {
      if (fixit.statement >= n) {
        return Status::InvalidArgument("fix-it statement out of range");
      }
      for (size_t j = 0; j < n; ++j) {
        if (statements[j].alias_of == fixit.statement) {
          return Status::InvalidArgument(
              "cannot remove a statement another read aliases");
        }
      }
      Program out;
      for (size_t j = 0; j < n; ++j) {
        if (j == fixit.statement) continue;
        Statement s = statements[j];
        // Indices past the removed statement shift down by one.
        if (s.alias_of.has_value() && *s.alias_of > fixit.statement) {
          --*s.alias_of;
        }
        out.mutable_statements().push_back(std::move(s));
      }
      return out;
    }
    case LintFixIt::Kind::kAliasRead: {
      if (fixit.statement >= n || fixit.alias_of >= fixit.statement) {
        return Status::InvalidArgument("fix-it alias indices invalid");
      }
      if (statements[fixit.statement].kind != Statement::Kind::kRead ||
          statements[fixit.alias_of].kind != Statement::Kind::kRead) {
        return Status::InvalidArgument("alias fix-it must join two reads");
      }
      Program out = program;
      out.mutable_statements()[fixit.statement].alias_of = fixit.alias_of;
      return out;
    }
    case LintFixIt::Kind::kReorder: {
      if (fixit.schedule.size() != n) {
        return Status::InvalidArgument("fix-it schedule size mismatch");
      }
      std::vector<bool> seen(n, false);
      for (size_t index : fixit.schedule) {
        if (index >= n || seen[index]) {
          return Status::InvalidArgument("fix-it schedule not a permutation");
        }
        seen[index] = true;
      }
      for (const Statement& s : statements) {
        if (s.alias_of.has_value()) {
          return Status::InvalidArgument(
              "cannot reorder a program with CSE annotations");
        }
      }
      return Optimizer::Reorder(program, fixit.schedule);
    }
  }
  return Status::InvalidArgument("unknown fix-it kind");
}

Linter::Linter(LintOptions options)
    : options_([&options] {
        // Value-level safety of the lint fix-its (the execution oracle
        // compares canonical subtree codes) requires tree-conflict
        // semantics: a node-semantics NoConflict still allows the update
        // to rewrite content *below* a read's result nodes. Forced here,
        // whatever the caller put in options.batch.detector.semantics.
        options.batch.detector.semantics = ConflictSemantics::kTree;
        // Diagnostics and edges come from verdicts alone: no witness is
        // built or re-checked.
        options.batch.detector.build_witness = false;
        return options;
      }()),
      batch_(options_.batch) {}

LintResult Linter::Lint(const Program& program) const {
  obs::TraceSpan lint_span("Lint");
  const LintMetrics& metrics = LintMetrics::Get();
  metrics.programs.Increment();

  LintResult result;
  const auto& statements = program.statements();
  const size_t n = statements.size();
  result.stats.statements = n;
  metrics.statements.Increment(n);

  // --- Dependence graph (analysis/dependence_graph.h) --------------------
  // Malformed updates stay dependent on everything on their variable and
  // are reported by the malformed-update pass.
  const std::vector<Result<UpdateOp>> ops =
      BindStatements(statements, batch_.pattern_store());
  auto malformed = [&](size_t i) {
    return IsUpdate(statements[i]) && !ops[i].ok();
  };
  DependenceGraph graph = [&] {
    obs::TraceSpan graph_span("Lint.graph");
    return BuildDependenceGraph(statements, ops, batch_);
  }();
  result.stats.pairs_checked = graph.verdicts_consulted();
  result.stats.update_pairs_checked = graph.certificates_consulted();
  const std::vector<std::optional<size_t>> aliases =
      SelectReadAliases(statements, graph);

  // Lint's own orderings, all between reads (which the classifier leaves
  // unordered): an alias annotation follows its source, and two reads into
  // one result variable keep their write-after-write order — the dependence
  // analyzer ignores result variables because it only tracks tree state.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const Statement& a = statements[i];
      const Statement& b = statements[j];
      if (IsUpdate(a) || IsUpdate(b)) continue;
      if (b.alias_of == i) {
        graph.AddEdge({i, j, EdgeReason::kAlias, ""});
      } else if (!a.result_var.empty() && a.result_var == b.result_var) {
        graph.AddEdge({i, j, EdgeReason::kResultVar, ""});
      }
    }
  }
  result.stats.dependence_edges = graph.edges().size();

  auto emit = [&](LintRule rule, std::vector<size_t> stmts,
                  std::string message, std::optional<LintFixIt> fixit) {
    Diagnostic d;
    d.rule = rule;
    d.severity = GetLintRuleInfo(rule).severity;
    d.statements = std::move(stmts);
    d.message = std::move(message);
    d.fixit = std::move(fixit);
    metrics.diagnostics.Increment();
    for (size_t r = 0; r < AllLintRules().size(); ++r) {
      if (AllLintRules()[r] == rule) {
        metrics.per_rule[r]->Increment();
        break;
      }
    }
    result.diagnostics.push_back(std::move(d));
  };

  // --- Pass: malformed-update -------------------------------------------
  {
    obs::TraceSpan span("Lint.malformed_update");
    for (size_t i = 0; i < n; ++i) {
      if (!malformed(i)) continue;
      emit(LintRule::kMalformedUpdate, {i},
           ops[i].status().message() + "; the statement cannot execute",
           std::nullopt);
    }
  }

  // --- Pass: dead-read ---------------------------------------------------
  // A read is dead when a later read overwrites its result variable:
  // straight-line programs have no other use of a result variable, reads
  // never mutate tree state, and nothing may alias the statement. Needs no
  // conflict verdicts at all, so truncation cannot make it unsound.
  {
    obs::TraceSpan span("Lint.dead_read");
    std::unordered_set<size_t> alias_targets;
    for (const Statement& s : statements) {
      if (s.alias_of.has_value()) alias_targets.insert(*s.alias_of);
    }
    for (size_t i = 0; i < n; ++i) {
      if (statements[i].kind != Statement::Kind::kRead) continue;
      if (statements[i].result_var.empty()) continue;
      if (alias_targets.count(i) != 0) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (statements[j].kind != Statement::Kind::kRead) continue;
        if (statements[j].result_var != statements[i].result_var) continue;
        LintFixIt fixit;
        fixit.kind = LintFixIt::Kind::kRemoveStatement;
        fixit.statement = i;
        fixit.description = "remove statement " + std::to_string(i);
        emit(LintRule::kDeadRead, {i, j},
             "result '" + statements[i].result_var +
                 "' is overwritten by statement " + std::to_string(j) +
                 " before any use",
             std::move(fixit));
        break;
      }
    }
  }

  // --- Pass: redundant-read (the shared CSE alias selection) -------------
  // A read gets an alias exactly when no update between it and an
  // identical earlier read is ordered before it: no conflicting (or
  // Unknown) update in between.
  {
    obs::TraceSpan span("Lint.redundant_read");
    for (size_t j = 0; j < n; ++j) {
      if (!aliases[j].has_value()) continue;
      const size_t alias = *aliases[j];
      LintFixIt fixit;
      fixit.kind = LintFixIt::Kind::kAliasRead;
      fixit.statement = j;
      fixit.alias_of = alias;
      fixit.description = "alias statement " + std::to_string(j) +
                          " to the result of statement " +
                          std::to_string(alias);
      emit(LintRule::kRedundantRead, {j, alias},
           "read repeats statement " + std::to_string(alias) +
               " with no conflicting update in between (CSE candidate)",
           std::move(fixit));
    }
  }

  // --- Pass: shadowed-update ---------------------------------------------
  // insert(p, X) at i is shadowed by delete(q) at j > i when:
  //  (1) q output-covers p extended with a child labeled like X's root
  //      (output-preserving homomorphism q → p'): every inserted subtree
  //      root is selected by q on every tree, hence deleted whole;
  //  (2) no non-output node of q is a wildcard or carries a label of X:
  //      the insert cannot enable new q-matches on pre-existing nodes, so
  //      q deletes exactly the same pre-existing nodes either way;
  //  (3) no update on the variable lies between i and j, and every read
  //      between them is provably (tree-semantics) unaffected by the
  //      insert — an Unknown verdict blocks the diagnostic.
  {
    obs::TraceSpan span("Lint.shadowed_update");
    for (size_t i = 0; i < n; ++i) {
      if (statements[i].kind != Statement::Kind::kInsert || malformed(i)) {
        continue;
      }
      const Tree& content = *statements[i].content;
      std::unordered_set<Label> content_labels;
      for (NodeId node : content.PreOrder()) {
        content_labels.insert(content.label(node));
      }
      // p' = p with a fresh output child for the grafted content root.
      Pattern extended = statements[i].pattern;
      const PatternNodeId grafted = extended.AddChild(
          extended.output(), content.label(content.root()), Axis::kChild);
      extended.SetOutput(grafted);
      bool blocked = false;
      for (size_t j = i + 1; j < n && !blocked; ++j) {
        if (statements[j].target_var != statements[i].target_var) continue;
        if (statements[j].kind == Statement::Kind::kRead) {
          // Condition (3): the read must be provably unaffected; a
          // conflicting, Unknown or failed verdict orders the pair and
          // blocks every later delete as well.
          if (graph.Ordered(i, j)) blocked = true;
          continue;
        }
        if (statements[j].kind != Statement::Kind::kDelete || malformed(j)) {
          blocked = true;  // another update intervenes before any shadow
          continue;
        }
        const Pattern& q = statements[j].pattern;
        bool labels_ok = true;
        for (PatternNodeId qn : q.PreOrder()) {
          if (qn == q.output()) continue;
          if (q.is_wildcard(qn) || content_labels.count(q.label(qn)) != 0) {
            labels_ok = false;
            break;
          }
        }
        // Condition (1): hom q → p' implies [[p']](t) ⊆ [[q]](t) for all
        // t (minimize.h convention), so every grafted content root sits
        // at a q-selected node and is deleted whole.
        if (labels_ok && HasOutputPreservingHomomorphism(q, extended)) {
          LintFixIt fixit;
          fixit.kind = LintFixIt::Kind::kRemoveStatement;
          fixit.statement = i;
          fixit.description = "remove statement " + std::to_string(i);
          emit(LintRule::kShadowedUpdate, {i, j},
               "inserted content is unconditionally deleted by statement " +
                   std::to_string(j) + " with no intervening observer",
               std::move(fixit));
        }
        // Whether or not it shadowed, this delete mutates the variable:
        // anything after it is a different story.
        blocked = true;
      }
    }
  }

  // --- Pass: non-commuting-update-race -----------------------------------
  {
    obs::TraceSpan span("Lint.update_race");
    for (const DependenceEdge& edge : graph.edges()) {
      if (edge.reason != EdgeReason::kUpdatePair) continue;
      std::string message =
          "updates may not commute; unsafe to reorder or parallelize";
      if (!edge.detail.empty()) message += " (" + edge.detail + ")";
      emit(LintRule::kUpdateRace, {edge.from, edge.to}, std::move(message),
           std::nullopt);
    }
  }

  // --- Pass: dtd-violation -----------------------------------------------
  // An insert always violates the schema when its content breaks the
  // schema's child constraints below its root (grafted copies get exactly
  // X's children), or when the attach label is concrete and may not have
  // X's root as a child. Labels are ids on one SymbolTable: inserts on
  // another table than the schema's cannot be checked against it, and one
  // program-level diagnostic says so instead of comparing foreign ids.
  if (options_.batch.detector.dtd != nullptr) {
    obs::TraceSpan span("Lint.dtd_violation");
    const Dtd& dtd = *options_.batch.detector.dtd;
    bool foreign = false;
    for (size_t i = 0; i < n; ++i) {
      if (statements[i].kind != Statement::Kind::kInsert || malformed(i)) {
        continue;
      }
      const Tree& content = *statements[i].content;
      const Pattern& p = statements[i].pattern;
      if (!SameSymbolTable(dtd.symbols(), content.symbols()) ||
          !SameSymbolTable(dtd.symbols(), p.symbols())) {
        foreign = true;
        continue;
      }
      std::string why;
      if (dtd.ConformsBelow(content, content.root(), &why) &&
          !p.is_wildcard(p.output()) &&
          !dtd.ChildAllowed(p.label(p.output()),
                            content.label(content.root()))) {
        why = "label " + content.LabelName(content.root()) +
              " is not allowed under attach label " + p.LabelName(p.output());
      }
      if (!why.empty()) {
        emit(LintRule::kDtdViolation, {i},
             "every application violates the DTD: " + why, std::nullopt);
      }
    }
    if (foreign) {
      emit(LintRule::kDtdViolation, {},
           "the DTD is on another SymbolTable than the program, so its "
           "inserts cannot be checked against it",
           std::nullopt);
    }
  }

  // --- Pass: truncated-verdict -------------------------------------------
  // Surfaces every Unknown pair verdict: the searches above treated it as
  // a dependence (no removal/reorder was derived from it), and the author
  // learns which budget to raise.
  {
    obs::TraceSpan span("Lint.truncated_verdict");
    for (const DependenceEdge& edge : graph.edges()) {
      if (edge.reason != EdgeReason::kUnknown) continue;
      ++result.stats.unknown_verdicts;
      metrics.unknown_verdicts.Increment();
      emit(LintRule::kTruncatedVerdict, {edge.from, edge.to},
           "bounded search exhausted its budget for the pair (" +
               StatementSummary(program, edge.from) + ", " +
               StatementSummary(program, edge.to) +
               "); treated as possibly conflicting",
           std::nullopt);
    }
  }

  // --- Pass: parallel-safety partitioner ---------------------------------
  // Wavefront levels of the conservative DAG: batch k holds statements
  // whose predecessors all sit in earlier batches. Every edge (conflicts,
  // Unknowns, WAW, aliases) spans levels, so statements sharing a batch
  // are pairwise independent.
  if (options_.partition && n > 0) {
    obs::TraceSpan span("Lint.partition");
    Wavefronts waves = ComputeWavefronts(n, graph.edges());
    result.partition.batches = std::move(waves.batches);
    result.partition.width = waves.width;
    const size_t num_levels = result.partition.batches.size();
    std::vector<size_t> schedule;
    for (const auto& batch : result.partition.batches) {
      schedule.insert(schedule.end(), batch.begin(), batch.end());
    }
    const bool has_alias =
        std::any_of(statements.begin(), statements.end(),
                    [](const Statement& s) { return s.alias_of.has_value(); });
    // A sorted permutation is the identity: nothing to reorder.
    const bool identity = std::is_sorted(schedule.begin(), schedule.end());
    std::optional<LintFixIt> fixit;
    if (!identity && !has_alias) {
      LintFixIt reorder;
      reorder.kind = LintFixIt::Kind::kReorder;
      reorder.schedule = schedule;
      reorder.description = "execute statements in batch order";
      fixit = std::move(reorder);
    }
    emit(LintRule::kParallelPartition, {},
         std::to_string(n) + " statements partition into " +
             std::to_string(num_levels) + " independent batches (parallel "
             "width " + std::to_string(result.partition.width) + ")",
         std::move(fixit));
  }

  // Deterministic presentation order: by primary statement, then emission
  // order (passes run in a fixed sequence).
  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     const size_t pa = a.statements.empty() ? SIZE_MAX
                                                            : a.statements[0];
                     const size_t pb = b.statements.empty() ? SIZE_MAX
                                                            : b.statements[0];
                     return pa < pb;
                   });
  return result;
}

// --- Renderers ------------------------------------------------------------

namespace {

int LineOf(size_t statement, const LintRenderOptions& options) {
  if (options.lines != nullptr && statement < options.lines->size()) {
    return (*options.lines)[statement];
  }
  return static_cast<int>(statement) + 1;
}

std::string FixItKindName(LintFixIt::Kind kind) {
  switch (kind) {
    case LintFixIt::Kind::kRemoveStatement:
      return "remove-statement";
    case LintFixIt::Kind::kAliasRead:
      return "alias-read";
    case LintFixIt::Kind::kReorder:
      return "reorder";
  }
  return "unknown";
}

std::string JsonIndexArray(const std::vector<size_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string JsonFixIt(const LintFixIt& fixit) {
  std::string out = "{\"kind\":\"" + FixItKindName(fixit.kind) + "\"";
  switch (fixit.kind) {
    case LintFixIt::Kind::kRemoveStatement:
      out += ",\"statement\":" + std::to_string(fixit.statement);
      break;
    case LintFixIt::Kind::kAliasRead:
      out += ",\"statement\":" + std::to_string(fixit.statement) +
             ",\"alias_of\":" + std::to_string(fixit.alias_of);
      break;
    case LintFixIt::Kind::kReorder:
      out += ",\"schedule\":" + JsonIndexArray(fixit.schedule);
      break;
  }
  out += ",\"description\":\"" + JsonEscape(fixit.description) + "\"}";
  return out;
}

}  // namespace

std::string RenderLintText(const Program& program, const LintResult& result,
                           const LintRenderOptions& options) {
  std::string out;
  size_t errors = 0;
  size_t warnings = 0;
  size_t infos = 0;
  for (const Diagnostic& d : result.diagnostics) {
    switch (d.severity) {
      case LintSeverity::kError:
        ++errors;
        break;
      case LintSeverity::kWarning:
        ++warnings;
        break;
      case LintSeverity::kInfo:
        ++infos;
        break;
    }
    const int line =
        d.statements.empty() ? 1 : LineOf(d.statements[0], options);
    out += options.artifact_uri + ":" + std::to_string(line) + ": " +
           std::string(LintSeverityName(d.severity)) + "[" +
           std::string(GetLintRuleInfo(d.rule).id) + "]: " + d.message + "\n";
    if (d.fixit.has_value()) {
      out += "    fix-it: " + d.fixit->description + "\n";
    }
  }
  out += "summary: " + std::to_string(program.size()) + " statements, " +
         std::to_string(result.diagnostics.size()) + " diagnostics (" +
         std::to_string(errors) + " errors, " + std::to_string(warnings) +
         " warnings, " + std::to_string(infos) + " info), parallel width " +
         std::to_string(result.partition.width) + " across " +
         std::to_string(result.partition.batches.size()) + " batches\n";
  return out;
}

std::string RenderLintJson(const Program& program, const LintResult& result,
                           const LintRenderOptions& options) {
  std::string out = "{\"artifact\":\"" + JsonEscape(options.artifact_uri) +
                    "\",\"statements\":" + std::to_string(program.size()) +
                    ",\"diagnostics\":[";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    if (i > 0) out += ",";
    out += "{\"rule\":\"" + std::string(GetLintRuleInfo(d.rule).id) +
           "\",\"severity\":\"" + std::string(LintSeverityName(d.severity)) +
           "\",\"statements\":" + JsonIndexArray(d.statements);
    if (!d.statements.empty()) {
      out += ",\"line\":" + std::to_string(LineOf(d.statements[0], options));
    }
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"";
    if (d.fixit.has_value()) out += ",\"fixit\":" + JsonFixIt(*d.fixit);
    out += "}";
  }
  out += "],\"partition\":{\"width\":" +
         std::to_string(result.partition.width) + ",\"batches\":[";
  for (size_t i = 0; i < result.partition.batches.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonIndexArray(result.partition.batches[i]);
  }
  out += "]},\"stats\":{\"pairs_checked\":" +
         std::to_string(result.stats.pairs_checked) +
         ",\"unknown_verdicts\":" +
         std::to_string(result.stats.unknown_verdicts) +
         ",\"update_pairs_checked\":" +
         std::to_string(result.stats.update_pairs_checked) +
         ",\"dependence_edges\":" +
         std::to_string(result.stats.dependence_edges) + "}}";
  return out;
}

std::string RenderLintSarif(const Program& program, const LintResult& result,
                            const LintRenderOptions& options) {
  (void)program;
  std::string out =
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"xmlup_lint\",\"informationUri\":"
      "\"https://github.com/xmlup/xmlup\",\"rules\":[";
  const std::vector<LintRule>& rules = AllLintRules();
  for (size_t i = 0; i < rules.size(); ++i) {
    const LintRuleInfo& info = GetLintRuleInfo(rules[i]);
    if (i > 0) out += ",";
    out += "{\"id\":\"" + std::string(info.id) +
           "\",\"shortDescription\":{\"text\":\"" +
           JsonEscape(info.description) + "\"}}";
  }
  out += "]}},\"results\":[";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    size_t rule_index = 0;
    for (size_t r = 0; r < rules.size(); ++r) {
      if (rules[r] == d.rule) rule_index = r;
    }
    const char* level = d.severity == LintSeverity::kError     ? "error"
                        : d.severity == LintSeverity::kWarning ? "warning"
                                                               : "note";
    if (i > 0) out += ",";
    out += "{\"ruleId\":\"" + std::string(GetLintRuleInfo(d.rule).id) +
           "\",\"ruleIndex\":" + std::to_string(rule_index) +
           ",\"level\":\"" + level + "\",\"message\":{\"text\":\"" +
           JsonEscape(d.message) + "\"},\"locations\":[";
    const size_t primary = d.statements.empty() ? 0 : d.statements[0];
    out += "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"" +
           JsonEscape(options.artifact_uri) +
           "\"},\"region\":{\"startLine\":" +
           std::to_string(d.statements.empty() ? 1 : LineOf(primary, options)) +
           "}}}]";
    if (d.statements.size() > 1) {
      out += ",\"relatedLocations\":[";
      for (size_t s = 1; s < d.statements.size(); ++s) {
        if (s > 1) out += ",";
        out += "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"" +
               JsonEscape(options.artifact_uri) +
               "\"},\"region\":{\"startLine\":" +
               std::to_string(LineOf(d.statements[s], options)) + "}}}";
      }
      out += "]";
    }
    if (d.fixit.has_value()) {
      out += ",\"properties\":{\"fixit\":" + JsonFixIt(*d.fixit) + "}";
    }
    out += "}";
  }
  out += "]}]}";
  return out;
}

}  // namespace xmlup
