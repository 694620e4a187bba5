#include "conflict/detector.h"

#include "common/check.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_build.h"
#include "dtd/type_summary.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "pattern/pattern_ops.h"
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

/// Stage 0 for the value path: type summaries computed directly from the
/// patterns (no store to cache them in). Returns the pruned report, or
/// nullopt when Stage 0 is disabled or cannot prove independence.
std::optional<ConflictReport> TypePruneValue(const Pattern& read,
                                             const Pattern& update_pattern,
                                             const Tree* insert_content,
                                             const DetectorOptions& options) {
  if (options.dtd == nullptr || !options.enable_type_pruning) {
    return std::nullopt;
  }
  const TypeSummary read_summary = ComputeTypeSummary(read, *options.dtd);
  const TypeSummary update_summary =
      ComputeTypeSummary(update_pattern, *options.dtd);
  const bool pruned =
      insert_content != nullptr
          ? TypePrunesReadInsert(read_summary, update_summary, *insert_content,
                                 options.semantics)
          : TypePrunesReadDelete(read_summary, update_summary,
                                 options.semantics);
  if (!pruned) return std::nullopt;
  return TypePrunedReport();
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

Result<ConflictReport> DetectInsertImpl(const Pattern& read,
                                        const Pattern& insert_pattern,
                                        const Tree& inserted,
                                        const DetectorOptions& options) {
  if (std::optional<ConflictReport> pruned =
          TypePruneValue(read, insert_pattern, &inserted, options)) {
    return std::move(*pruned);
  }
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (read.IsLinear()) {
    metrics.dispatch_linear.Increment();
    return DetectLinearReadInsertConflict(read, insert_pattern, inserted,
                                          options.semantics, options.matcher,
                                          options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  // Heuristic: conflict of the read's mainline often extends to the full
  // branching read once its predicates are satisfiable everywhere. The
  // mainline call always builds its witness — TryMainlineWitness extends
  // that verified tree.
  Result<ConflictReport> mainline_report =
      DetectLinearReadInsertConflict(Mainline(read), insert_pattern, inserted,
                                     options.semantics, options.matcher,
                                     /*build_witness=*/true);
  // The mainline run uses the complete linear algorithm on valid inputs
  // (the mainline of any read is linear); a failure is a real
  // InvalidArgument/Internal error, not a heuristic miss — propagate it
  // instead of masking it behind the bounded search.
  if (!mainline_report.ok()) return mainline_report;
  std::optional<Tree> candidate = TryMainlineWitness(
      read, insert_pattern, &inserted, *mainline_report, [&](const Tree& t) {
        return IsReadInsertWitness(read, insert_pattern, inserted, t,
                                   options.semantics);
      });
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
  }
  BruteForceResult search = BruteForceReadInsertSearch(
      read, insert_pattern, inserted, options.semantics, options.search);
  return FromSearch(std::move(search),
                    PaperWitnessBound(read, insert_pattern),
                    options.search.max_nodes);
}

Result<ConflictReport> DetectDeleteImpl(const Pattern& read,
                                        const Pattern& delete_pattern,
                                        const DetectorOptions& options) {
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(delete_pattern));
  if (std::optional<ConflictReport> pruned = TypePruneValue(
          read, delete_pattern, /*insert_content=*/nullptr, options)) {
    return std::move(*pruned);
  }
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  if (read.IsLinear()) {
    metrics.dispatch_linear.Increment();
    return DetectLinearReadDeleteConflict(read, delete_pattern,
                                          options.semantics, options.matcher,
                                          options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  Result<ConflictReport> mainline_report =
      DetectLinearReadDeleteConflict(Mainline(read), delete_pattern,
                                     options.semantics, options.matcher,
                                     /*build_witness=*/true);
  // See DetectInsertImpl: a mainline failure is a real error, not a
  // heuristic miss.
  if (!mainline_report.ok()) return mainline_report;
  std::optional<Tree> candidate = TryMainlineWitness(
      read, delete_pattern, /*inserted=*/nullptr, *mainline_report,
      [&](const Tree& t) {
        return IsReadDeleteWitness(read, delete_pattern, t,
                                   options.semantics);
      });
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
  }
  BruteForceResult search = BruteForceReadDeleteSearch(
      read, delete_pattern, options.semantics, options.search);
  return FromSearch(std::move(search),
                    PaperWitnessBound(read, delete_pattern),
                    options.search.max_nodes);
}

/// Cached mirror of DetectInsertImpl: the linear path and the branching
/// heuristic's mainline probe run on the store's compiled automata (the
/// compiled read *is* its mainline chain, so one compiled core serves
/// both); only the heuristic extension and the bounded search still touch
/// the stored pattern. Dispatch counters and reports match the value impl
/// exactly.
Result<ConflictReport> DetectInsertCachedImpl(const PatternStore& store,
                                              PatternRef read,
                                              const Pattern& insert_pattern,
                                              PatternRef insert_ref,
                                              const Tree& inserted,
                                              const DetectorOptions& options) {
  if (std::optional<ConflictReport> pruned =
          TypePruneStage(store, read, UpdateOp::Kind::kInsert, insert_ref,
                         &inserted, options)) {
    return std::move(*pruned);
  }
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  const CompiledPattern& read_compiled = store.compiled(read);
  const CompiledPattern& insert_compiled = store.compiled(insert_ref);
  if (store.linear(read)) {
    metrics.dispatch_linear.Increment();
    return DetectReadInsertConflictCompiled(
        read_compiled, insert_compiled, insert_pattern, inserted,
        options.semantics, options.matcher, options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  Result<ConflictReport> mainline_report = DetectReadInsertConflictCompiled(
      read_compiled, insert_compiled, insert_pattern, inserted,
      options.semantics, options.matcher, /*build_witness=*/true);
  if (!mainline_report.ok()) return mainline_report;
  const Pattern& full_read = store.pattern(read);
  std::optional<Tree> candidate = TryMainlineWitness(
      full_read, insert_pattern, &inserted, *mainline_report,
      [&](const Tree& t) {
        return IsReadInsertWitness(full_read, insert_pattern, inserted, t,
                                   options.semantics);
      });
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
  }
  BruteForceResult search = BruteForceReadInsertSearch(
      full_read, insert_pattern, inserted, options.semantics, options.search);
  return FromSearch(std::move(search),
                    PaperWitnessBound(full_read, insert_pattern),
                    options.search.max_nodes);
}

/// Cached mirror of DetectDeleteImpl; see DetectInsertCachedImpl.
Result<ConflictReport> DetectDeleteCachedImpl(const PatternStore& store,
                                              PatternRef read,
                                              const Pattern& delete_pattern,
                                              PatternRef delete_ref,
                                              const DetectorOptions& options) {
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(delete_pattern));
  if (std::optional<ConflictReport> pruned =
          TypePruneStage(store, read, UpdateOp::Kind::kDelete, delete_ref,
                         /*insert_content=*/nullptr, options)) {
    return std::move(*pruned);
  }
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  const CompiledPattern& read_compiled = store.compiled(read);
  const CompiledPattern& delete_compiled = store.compiled(delete_ref);
  if (store.linear(read)) {
    metrics.dispatch_linear.Increment();
    return DetectReadDeleteConflictCompiled(
        read_compiled, delete_compiled, delete_pattern, options.semantics,
        options.matcher, options.build_witness);
  }
  metrics.dispatch_branching.Increment();
  Result<ConflictReport> mainline_report = DetectReadDeleteConflictCompiled(
      read_compiled, delete_compiled, delete_pattern, options.semantics,
      options.matcher, /*build_witness=*/true);
  if (!mainline_report.ok()) return mainline_report;
  const Pattern& full_read = store.pattern(read);
  std::optional<Tree> candidate = TryMainlineWitness(
      full_read, delete_pattern, /*inserted=*/nullptr, *mainline_report,
      [&](const Tree& t) {
        return IsReadDeleteWitness(full_read, delete_pattern, t,
                                   options.semantics);
      });
  if (candidate.has_value()) {
    return MainlineHeuristicReport(std::move(*candidate));
  }
  BruteForceResult search = BruteForceReadDeleteSearch(
      full_read, delete_pattern, options.semantics, options.search);
  return FromSearch(std::move(search),
                    PaperWitnessBound(full_read, delete_pattern),
                    options.search.max_nodes);
}

}  // namespace

std::optional<ConflictReport> TypePruneStage(const PatternStore& store,
                                             PatternRef read,
                                             UpdateOp::Kind kind,
                                             PatternRef update_pattern,
                                             const Tree* insert_content,
                                             const DetectorOptions& options) {
  if (options.dtd == nullptr || !options.enable_type_pruning) {
    return std::nullopt;
  }
  const Dtd& dtd = *options.dtd;
  const TypeSummary& read_summary = store.type_summary(read, dtd);
  const TypeSummary& update_summary = store.type_summary(update_pattern, dtd);
  bool pruned;
  if (kind == UpdateOp::Kind::kInsert) {
    XMLUP_CHECK_STREAM(insert_content != nullptr)
        << "TypePruneStage: insert update without content tree";
    pruned = TypePrunesReadInsert(read_summary, update_summary,
                                  *insert_content, options.semantics);
  } else {
    pruned = TypePrunesReadDelete(read_summary, update_summary,
                                  options.semantics);
  }
  if (!pruned) return std::nullopt;
  return TypePrunedReport();
}

Result<ConflictReport> Detect(const Pattern& read, const UpdateOp& update,
                              const DetectorOptions& options) {
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  metrics.calls.Increment();
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("Detect");
  Result<ConflictReport> result = update.Visit(
      [&](const UpdateOp::InsertDesc& insert) -> Result<ConflictReport> {
        return DetectInsertImpl(read, insert.pattern, *insert.content,
                                options);
      },
      [&](const UpdateOp::DeleteDesc& del) -> Result<ConflictReport> {
        return DetectDeleteImpl(read, del.pattern, options);
      });
  CountOutcome(metrics, result);
  return result;
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
    // Update not bound to this store: no compiled form to fetch for it —
    // resolve the read and take the value path (which does its own call
    // accounting).
    return Detect(store.pattern(read), update, options);
  }
  metrics.calls.Increment();
  obs::ScopedTimer timer(&metrics.latency_us);
  obs::TraceSpan span("Detect");
  const PatternRef update_ref = update.pattern_ref();
  Result<ConflictReport> result = update.Visit(
      [&](const UpdateOp::InsertDesc& insert) -> Result<ConflictReport> {
        return DetectInsertCachedImpl(store, read, insert.pattern, update_ref,
                                      *insert.content, options);
      },
      [&](const UpdateOp::DeleteDesc& del) -> Result<ConflictReport> {
        return DetectDeleteCachedImpl(store, read, del.pattern, update_ref,
                                      options);
      });
  CountOutcome(metrics, result);
  return result;
}

}  // namespace xmlup
