#include "conflict/detector.h"

#include <optional>

#include "common/check.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_build.h"
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Detector-level observability: per-verdict and per-method counters, the
/// linear-vs-bounded dispatch split, and an end-to-end latency histogram.
/// References are resolved once; the steady-state cost per Detect() call
/// is a handful of relaxed atomic adds.
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
  obs::Histogram& latency_us;

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
          reg.GetHistogram("detector.latency_us"),
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

/// Heuristic fast path for branching reads: run the complete linear
/// algorithm on the read's mainline; if that conflicts, extend its witness
/// with models of the read's branch subtrees (so the predicates hold) and
/// check the result against the definitional checker. Sound — anything
/// accepted is a verified witness — but incomplete; failures fall through
/// to the bounded search.
template <typename VerifyFn>
std::optional<Tree> TryMainlineWitness(const Pattern& read,
                                       const Pattern& update,
                                       const Tree* inserted,
                                       const ConflictReport& linear,
                                       const VerifyFn& is_witness) {
  if (!linear.conflict() || !linear.witness.has_value()) return std::nullopt;
  Tree candidate = CopyTree(*linear.witness);
  // The models' filler is new to the linear witness as well as the inputs.
  const Label filler =
      FillerLabels({&read, &update}, {inserted, &candidate}, 1)[0];
  GraftBranchModelsEverywhere(&candidate, read, filler);
  if (is_witness(candidate)) return candidate;
  return std::nullopt;
}

ConflictReport MainlineHeuristicReport(Tree witness) {
  ConflictReport report;
  report.verdict = ConflictVerdict::kConflict;
  report.witness = std::move(witness);
  report.method = DetectorMethod::kMainlineHeuristic;
  report.detail = "mainline witness extended with branch models";
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
/// witness checker the heuristic extension must pass, and the Stage 2
/// search; the linear path and the heuristic's mainline probe both run on
/// the store's compiled forms (the compiled read *is* its mainline chain,
/// so one call serves both), and only the heuristic extension and the
/// bounded search touch the full stored read.
Result<ConflictReport> DetectStaged(const PatternStore& store, PatternRef read,
                                    const UpdateOp& update,
                                    const DetectorOptions& options) {
  const Pattern& update_pattern = update.pattern();
  const bool is_insert = update.kind() == UpdateOp::Kind::kInsert;
  const Tree* inserted = is_insert ? &update.content() : nullptr;
  if (!is_insert) XMLUP_RETURN_NOT_OK(ValidateDeletePattern(update_pattern));
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
  auto linear_core = [&](bool build_witness) {
    return is_insert ? DetectReadInsertConflictCompiled(
                           read_compiled, update_compiled, update_pattern,
                           *inserted, options.semantics, build_witness)
                     : DetectReadDeleteConflictCompiled(
                           read_compiled, update_compiled, update_pattern,
                           options.semantics, build_witness);
  };
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (store.linear(read)) {
    metrics.dispatch_linear.Increment();
    return linear_core(options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  // Heuristic: conflict of the read's mainline often extends to the full
  // branching read once its predicates are satisfiable everywhere. The
  // mainline call always builds its witness — TryMainlineWitness extends
  // that verified tree. The mainline of any read is linear, so a failure
  // here is a real InvalidArgument/Internal error, not a heuristic miss —
  // propagate it instead of masking it behind the bounded search.
  Result<ConflictReport> mainline_report = linear_core(/*build_witness=*/true);
  if (!mainline_report.ok()) return mainline_report;
  const Pattern& full_read = store.pattern(read);
  std::optional<Tree> candidate = TryMainlineWitness(
      full_read, update_pattern, inserted, *mainline_report,
      [&](const Tree& t) {
        return is_insert ? IsReadInsertWitness(full_read, update_pattern,
                                               *inserted, t, options.semantics)
                         : IsReadDeleteWitness(full_read, update_pattern, t,
                                               options.semantics);
      });
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
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
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("Detect");
  Result<ConflictReport> result = DetectStaged(store, read, update, options);
  CountOutcome(metrics, result);
  return result;
}

}  // namespace xmlup
