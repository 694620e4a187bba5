#include "conflict/detector.h"

#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_build.h"
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern_ops.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Detector-level observability: per-verdict and per-method counters and
/// the linear-vs-bounded dispatch split. References are resolved once; the
/// steady-state cost per Detect() call is a handful of relaxed atomic adds
/// and no clock read.
struct DetectorMetrics {
  obs::Counter& calls;
  obs::Counter& errors;
  obs::Counter& dispatch_linear;
  obs::Counter& dispatch_branching;
  obs::Counter& verdict_conflict;
  obs::Counter& verdict_no_conflict;
  obs::Counter& verdict_unknown;
  obs::Counter& method_linear;
  obs::Counter& method_mainline;
  obs::Counter& method_bounded;
  obs::Counter& method_type_pruned;
  obs::Counter& method_leaf_path;
  obs::Counter& method_leaf_path_witness;

  static const DetectorMetrics& Get() {
    static const DetectorMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new DetectorMetrics{
          reg.GetCounter("detector.calls"),
          reg.GetCounter("detector.errors"),
          reg.GetCounter("detector.dispatch.linear"),
          reg.GetCounter("detector.dispatch.branching"),
          reg.GetCounter("detector.verdict.conflict"),
          reg.GetCounter("detector.verdict.no_conflict"),
          reg.GetCounter("detector.verdict.unknown"),
          reg.GetCounter("detector.method.linear_ptime"),
          reg.GetCounter("detector.method.mainline_heuristic"),
          reg.GetCounter("detector.method.bounded_search"),
          reg.GetCounter("detector.method.type_pruned"),
          reg.GetCounter("detector.method.leaf_path_certificate"),
          reg.GetCounter("detector.method.leaf_path_witness"),
      };
    }();
    return *metrics;
  }
};

/// Every Detect() call lands in exactly one of the four outcome counters:
/// calls == conflict + no_conflict + unknown + errors. Tested by the
/// accounting-invariant test in detect_hot_cache_test.cc.
void CountOutcome(const DetectorMetrics& metrics,
                  const Result<ConflictReport>& result);

void CountReport(const DetectorMetrics& metrics, const ConflictReport& report) {
  switch (report.verdict) {
    case ConflictVerdict::kConflict:
      metrics.verdict_conflict.Increment();
      break;
    case ConflictVerdict::kNoConflict:
      metrics.verdict_no_conflict.Increment();
      break;
    case ConflictVerdict::kUnknown:
      metrics.verdict_unknown.Increment();
      break;
  }
  switch (report.method) {
    case DetectorMethod::kLinearPtime:
      metrics.method_linear.Increment();
      break;
    case DetectorMethod::kMainlineHeuristic:
      metrics.method_mainline.Increment();
      break;
    case DetectorMethod::kBoundedSearch:
      metrics.method_bounded.Increment();
      break;
    case DetectorMethod::kTypePruned:
      metrics.method_type_pruned.Increment();
      break;
    case DetectorMethod::kLeafPathCertificate:
      metrics.method_leaf_path.Increment();
      break;
    case DetectorMethod::kLeafPathWitness:
      metrics.method_leaf_path_witness.Increment();
      break;
  }
}

void CountOutcome(const DetectorMetrics& metrics,
                  const Result<ConflictReport>& result) {
  if (result.ok()) {
    CountReport(metrics, *result);
  } else {
    metrics.errors.Increment();
  }
}

/// The Lemma 4 / Lemma 8 extension step for a branching read, shared by
/// the mainline heuristic (`end` = O(R)) and the leaf-path witness (`end`
/// a leaf ℓ; when O(R) is a leaf, the mainline is that leaf's path).
/// `path_witness` is a verified witness of a conflict of the read's
/// root-to-`end` path SEQ_ROOT^end. Models of the read's branches off that
/// path are grafted onto every node of it, so each embedding of the path
/// extends to one of the read, and the result is returned if `is_witness`
/// (the Lemma 1 checker on the full read) accepts it; with `uniquify`, a
/// rejected tree gets the Lemma 2 uniquifying child under every node and
/// is checked once more. Sound — nothing unchecked is returned — but
/// incomplete; a miss hands the pair to the next stage.
template <typename VerifyFn>
std::optional<Tree> ExtendPathWitness(const Pattern& read, PatternNodeId end,
                                      const Pattern& update,
                                      const Tree* inserted, Tree path_witness,
                                      bool uniquify,
                                      const VerifyFn& is_witness) {
  // The filler and the uniquifying label are new to the path witness as
  // well as the inputs.
  const std::vector<Label> fill = FillerLabels(
      {&read, &update}, {inserted, &path_witness}, uniquify ? 2 : 1);
  if (end == read.output()) {
    GraftBranchModelsEverywhere(&path_witness, read, fill[0]);
  } else {
    Pattern moved = read;
    moved.SetOutput(end);
    GraftBranchModelsEverywhere(&path_witness, moved, fill[0]);
  }
  if (is_witness(path_witness)) return path_witness;
  if (!uniquify) return std::nullopt;
  for (NodeId n : path_witness.PreOrder()) path_witness.AddChild(n, fill[1]);
  if (is_witness(path_witness)) return path_witness;
  return std::nullopt;
}

ConflictReport ExtendedWitnessReport(DetectorMethod method, Tree witness,
                                     std::string detail) {
  ConflictReport report;
  report.verdict = ConflictVerdict::kConflict;
  report.witness = std::move(witness);
  report.method = method;
  report.detail = std::move(detail);
  return report;
}

/// A leaf ℓ ≠ O(R) of a branching read whose path SEQ_ROOT^ℓ has a node
/// conflict, with the linear detector's verified witness of it.
struct ConflictingLeaf {
  PatternNodeId leaf;
  std::optional<Tree> witness;
};

/// Stage 1b, the leaf-path independence certificate for a branching read
/// (proof in DESIGN.md, "Leaf-path independence certificate"). A node
/// conflict of the read shows as a node conflict of one of its
/// root-to-leaf paths SEQ_ROOT^l: a delete loses a result only by deleting
/// the image of some pattern node, and with it the images of every leaf
/// below that node; an insert gains one only through a pattern node mapped
/// into the inserted copy, and every leaf below it maps there too. Under
/// tree or value semantics a result whose subtree changed is a result of
/// the mainline before and after, so the mainline's own report (computed
/// under the requested semantics by the heuristic) must also be clean.
///
/// Returns the leaves whose paths conflict, in pattern-node order, with
/// their witnesses; each leaf path is compiled on the spot and handed to
/// `detect_node` (the complete linear core under node semantics, which
/// builds a witness only on a conflict). An output leaf's path is the
/// mainline, which `MainlineClears` covers, so it is skipped. The pair is
/// certified when no leaf is returned and the mainline clears. A leaf-path
/// error propagates.
template <typename DetectNodeFn>
Result<std::vector<ConflictingLeaf>> ConflictingLeafPaths(
    const Pattern& read, const DetectNodeFn& detect_node) {
  std::vector<ConflictingLeaf> conflicting;
  for (PatternNodeId n = 0; n < read.size(); ++n) {
    if (n == read.output() || read.first_child(n) != kNullPatternNode) {
      continue;
    }
    XMLUP_ASSIGN_OR_RETURN(
        ConflictReport path,
        detect_node(CompiledPattern(ExtractSeq(read, read.root(), n))));
    if (path.verdict != ConflictVerdict::kNoConflict) {
      conflicting.push_back({n, std::move(path.witness)});
    }
  }
  return conflicting;
}

/// The certificate's mainline condition: under tree or value semantics,
/// or when O(R) is a leaf, the mainline's report must be clean. A clean
/// report under any semantics includes its node-semantics check.
bool MainlineClears(const Pattern& read, const ConflictReport& mainline,
                    ConflictSemantics semantics) {
  const bool output_is_leaf =
      read.first_child(read.output()) == kNullPatternNode;
  return (semantics == ConflictSemantics::kNode && !output_is_leaf) ||
         mainline.verdict == ConflictVerdict::kNoConflict;
}

ConflictReport LeafPathCertificateReport() {
  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLeafPathCertificate;
  return report;
}

ConflictReport FromSearch(BruteForceResult search, size_t paper_bound,
                          size_t searched_bound) {
  ConflictReport report;
  report.method = DetectorMethod::kBoundedSearch;
  report.trees_checked = search.trees_checked;
  switch (search.outcome) {
    case SearchOutcome::kWitnessFound:
      report.verdict = ConflictVerdict::kConflict;
      report.witness = std::move(search.witness);
      break;
    case SearchOutcome::kExhaustedNoWitness:
      // Complete only if the searched size covers the paper's witness
      // bound (Lemma 11 / Theorem 5) AND the enumeration really covered
      // the whole space — a truncated search must stay kUnknown no matter
      // what its outcome field claims (defense in depth; RunSearch already
      // downgrades truncated searches to kBudgetExceeded).
      report.verdict = (searched_bound >= paper_bound && !search.truncated)
                           ? ConflictVerdict::kNoConflict
                           : ConflictVerdict::kUnknown;
      break;
    case SearchOutcome::kBudgetExceeded:
      report.verdict = ConflictVerdict::kUnknown;
      break;
  }
  return report;
}

/// Stage 0: with a schema configured, answers the pair when its type
/// footprints are disjoint (the fixed-field kTypePruned / kNoConflict
/// report); otherwise nullopt, and the pair belongs in Stages 1-2.
/// Summaries are served from the store's per-entry cache
/// (PatternStore::type_summary) under the store's bound schema, which the
/// caller has checked is options.dtd.
std::optional<ConflictReport> TypePruneStage(const PatternStore& store,
                                             PatternRef read,
                                             const UpdateOp& update,
                                             const DetectorOptions& options) {
  const TypeSummary& read_summary = store.type_summary(read);
  const TypeSummary& update_summary = store.type_summary(update.pattern_ref());
  const bool pruned =
      update.kind() == UpdateOp::Kind::kInsert
          ? TypePrunesReadInsert(read_summary, update_summary,
                                 update.content(), options.semantics)
          : TypePrunesReadDelete(read_summary, update_summary,
                                 options.semantics);
  if (!pruned) return std::nullopt;
  return TypePrunedReport();
}

/// The staged pipeline for a read interned in `store` and an update bound
/// to it. The update's kind chooses only the Stage 1 linear core, the
/// witness checker the extensions must pass, and the Stage 2 search; the
/// linear path and the heuristic's mainline probe both run on the store's
/// compiled forms (the compiled read *is* its mainline chain, so one call
/// serves both), and only the extensions, the leaf-path certificate and
/// the bounded search touch the full stored read.
Result<ConflictReport> DetectStaged(const PatternStore& store, PatternRef read,
                                    const UpdateOp& update,
                                    const DetectorOptions& options) {
  const Pattern& update_pattern = update.pattern();
  const bool is_insert = update.kind() == UpdateOp::Kind::kInsert;
  const Tree* inserted = is_insert ? &update.content() : nullptr;
  if (!is_insert) XMLUP_RETURN_NOT_OK(ValidateDeletePattern(update_pattern));
  // The bound update's pattern is stored on the store's table, as the read
  // is; content from another table would have its labels compared across
  // tables.
  if (is_insert &&
      !SameSymbolTable(inserted->symbols(), update_pattern.symbols())) {
    return Status::InvalidArgument(
        "insert content was parsed against a different SymbolTable than "
        "the read's; labels are only comparable within one table");
  }
  if (options.dtd != nullptr) {
    // The stored read's table, not store.symbols(), which takes the store
    // mutex: every stored pattern is on the store's table.
    if (!SameSymbolTable(options.dtd->symbols(),
                         store.pattern(read).symbols())) {
      return Status::InvalidArgument(
          "DetectorOptions::dtd was parsed against a different SymbolTable "
          "than the read's; labels are only comparable within one table");
    }
    XMLUP_RETURN_NOT_OK(store.BindSchema(options.dtd));
    if (std::optional<ConflictReport> pruned =
            TypePruneStage(store, read, update, options)) {
      return std::move(*pruned);
    }
  }
  const CompiledPattern& read_compiled = store.compiled(read);
  const CompiledPattern& update_compiled = store.compiled(update.pattern_ref());
  // The complete linear core on a linear read form: the stored read's
  // compiled mainline, or one of its leaf paths.
  auto linear_core = [&](const CompiledPattern& read_form,
                         ConflictSemantics semantics, bool build_witness) {
    return is_insert ? DetectReadInsertConflictCompiled(
                           read_form, update_compiled, update_pattern,
                           *inserted, semantics, build_witness)
                     : DetectReadDeleteConflictCompiled(
                           read_form, update_compiled, update_pattern,
                           semantics, build_witness);
  };
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (store.linear(read)) {
    metrics.dispatch_linear.Increment();
    return linear_core(read_compiled, options.semantics, options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  const Pattern& full_read = store.pattern(read);
  auto is_witness = [&](const Tree& t) {
    return is_insert ? IsReadInsertWitness(full_read, update_pattern,
                                           *inserted, t, options.semantics)
                     : IsReadDeleteWitness(full_read, update_pattern, t,
                                           options.semantics);
  };
  // Heuristic: conflict of the read's mainline often extends to the full
  // branching read once its predicates are satisfiable everywhere. The
  // mainline call always builds its witness, the verified tree the
  // extension starts from. The mainline of any read is linear, so a
  // failure here is a real InvalidArgument/Internal error, not a heuristic
  // miss — propagate it instead of masking it behind the bounded search.
  Result<ConflictReport> mainline_report =
      linear_core(read_compiled, options.semantics, /*build_witness=*/true);
  if (!mainline_report.ok()) return mainline_report;
  if (mainline_report->conflict() && mainline_report->witness.has_value()) {
    if (std::optional<Tree> witness = ExtendPathWitness(
            full_read, full_read.output(), update_pattern, inserted,
            std::move(*mainline_report->witness), /*uniquify=*/false,
            is_witness)) {
      return ExtendedWitnessReport(
          DetectorMethod::kMainlineHeuristic, std::move(*witness),
          "mainline witness extended with branch models");
    }
  }
  XMLUP_ASSIGN_OR_RETURN(
      std::vector<ConflictingLeaf> conflicting,
      ConflictingLeafPaths(full_read, [&](const CompiledPattern& path) {
        return linear_core(path, ConflictSemantics::kNode,
                           /*build_witness=*/true);
      }));
  if (conflicting.empty() &&
      MainlineClears(full_read, *mainline_report, options.semantics)) {
    return LeafPathCertificateReport();
  }
  // The leaf-path witness: each conflicting leaf path's node-semantics
  // witness, extended like the mainline's. The first tree the checker
  // accepts is the verdict; the stage never answers kNoConflict.
  for (ConflictingLeaf& leaf : conflicting) {
    if (!leaf.witness.has_value()) continue;
    if (std::optional<Tree> witness = ExtendPathWitness(
            full_read, leaf.leaf, update_pattern, inserted,
            std::move(*leaf.witness), /*uniquify=*/true, is_witness)) {
      return ExtendedWitnessReport(
          DetectorMethod::kLeafPathWitness, std::move(*witness),
          "leaf-path witness extended with branch models");
    }
  }
  BruteForceResult search =
      is_insert ? BruteForceReadInsertSearch(full_read, update_pattern,
                                             *inserted, options.semantics,
                                             options.search)
                : BruteForceReadDeleteSearch(full_read, update_pattern,
                                             options.semantics,
                                             options.search);
  return FromSearch(std::move(search),
                    PaperWitnessBound(full_read, update_pattern),
                    options.search.max_nodes);
}

/// The value facade's input checks, run before anything is interned: both
/// patterns non-empty and every operand on the read's SymbolTable (labels
/// are only comparable within one table, and interning into one store
/// requires it).
Status ValidateValueOperands(const Pattern& read, const UpdateOp& update) {
  if (!read.has_root() || !update.pattern().has_root()) {
    return Status::InvalidArgument("read and update patterns must be non-empty");
  }
  const bool same_table =
      SameSymbolTable(read.symbols(), update.pattern().symbols()) &&
      (update.kind() == UpdateOp::Kind::kDelete ||
       SameSymbolTable(read.symbols(), update.content().symbols()));
  if (!same_table) {
    return Status::InvalidArgument(
        "read, update pattern and insert content must share one SymbolTable");
  }
  return Status::OK();
}

}  // namespace

Result<ConflictReport> Detect(const Pattern& read, const UpdateOp& update,
                              const DetectorOptions& options) {
  if (Status status = ValidateValueOperands(read, update); !status.ok()) {
    const DetectorMetrics& metrics = DetectorMetrics::Get();
    metrics.calls.Increment();
    metrics.errors.Increment();
    return status;
  }
  // A call-local, non-minimizing store: the read and the update are
  // detected exactly as given, so every report field matches a ref call on
  // the same patterns.
  auto store = std::make_shared<PatternStore>(
      read.symbols(), PatternStoreOptions{.minimize = false});
  const PatternRef ref = store->Intern(read);
  return Detect(*store, ref, update.Bind(store), options);
}

Result<ConflictReport> Detect(const PatternStore& store, PatternRef read,
                              const UpdateOp& update,
                              const DetectorOptions& options) {
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (!read.valid() || read.id() >= store.size()) {
    // A counted error, not a crash: callers handing out refs (services,
    // the lint driver) get a diagnosable status and the accounting
    // invariant still holds.
    metrics.calls.Increment();
    metrics.errors.Increment();
    return Status::InvalidArgument(
        "PatternRef is invalid or does not belong to this store");
  }
  if (update.pattern_store() != &store || !update.pattern_ref().valid()) {
    // Update not bound to this store: resolve the read and take the value
    // facade, which binds both into a call-local store (and does its own
    // call accounting).
    return Detect(store.pattern(read), update, options);
  }
  metrics.calls.Increment();
  obs::TraceSpan span("Detect");
  Result<ConflictReport> result = DetectStaged(store, read, update, options);
  CountOutcome(metrics, result);
  return result;
}

}  // namespace xmlup
