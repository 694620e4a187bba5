#ifndef XMLUP_CONFLICT_DETECTOR_H_
#define XMLUP_CONFLICT_DETECTOR_H_

#include <optional>

#include "common/result.h"
#include "conflict/bounded_search.h"
#include "conflict/report.h"
#include "conflict/update_op.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"
#include "xml/tree.h"

namespace xmlup {

class Dtd;

struct DetectorOptions {
  ConflictSemantics semantics = ConflictSemantics::kNode;
  MatcherKind matcher = MatcherKind::kNfa;
  /// Budget for the NP path (branching reads).
  BoundedSearchOptions search;
  /// Construct (and re-verify) a witness tree on kConflict verdicts.
  /// Verdict-only callers (the batch matrix, lint) can turn this off: the
  /// witness construction re-runs the Lemma 1 checker per conflict, which
  /// dominates the cached hot path. Verdict,
  /// method and detail are unaffected. The branching-read heuristic
  /// internally still builds the mainline witness it extends (its
  /// soundness proof needs the verified tree).
  bool build_witness = true;
  /// Schema for the Stage 0 type-pruning filter (dtd/type_summary.h).
  /// When set, detection is *conservative under the schema*: Stage 0 may
  /// answer kNoConflict (method kTypePruned) for pairs that cannot
  /// conflict on any DTD-conformant document, while Stages 1-2 keep the
  /// unrestricted-document semantics of the paper. Setting a schema can
  /// only refine kConflict/kUnknown answers into schema-sound kNoConflict
  /// ones — it never flips a no-conflict verdict. Must share the caller's
  /// SymbolTable and outlive every Detect call (the PatternStore caches
  /// summaries keyed by its address). Null disables Stage 0 entirely.
  const Dtd* dtd = nullptr;
  /// Ablation toggle for Stage 0; meaningful only with `dtd` set. With
  /// pruning off (or no schema) the pipeline is byte-identical to the
  /// pre-Stage-0 detector.
  bool enable_type_pruning = true;
  /// Multi-pair scans (conflict/transactions.h): record *every*
  /// uncertified pair in deterministic order instead of stopping at the
  /// first — what a scheduler needs to distinguish one bad pair from a
  /// dense conflict. The default keeps the cheap early exit. Single-pair
  /// Detect/Certify calls ignore this.
  bool exhaustive = false;
};

/// Stage 0 of the staged verdict pipeline, exposed for batch callers that
/// want to prune a pair *before* spending a memo-cache slot on it: when a
/// schema is configured and the pair's type footprints are disjoint,
/// returns the (fixed-field) kTypePruned / kNoConflict report; otherwise
/// nullopt, and the pair belongs in Stages 1-2 (a full Detect call).
/// Summaries are served from the store's per-entry cache
/// (PatternStore::type_summary). `insert_content` is required for insert
/// updates and ignored for deletes. Does not touch the detector.* counters
/// — Detect's own Stage 0 does its accounting inside the facade.
std::optional<ConflictReport> TypePruneStage(const PatternStore& store,
                                             PatternRef read,
                                             UpdateOp::Kind kind,
                                             PatternRef update_pattern,
                                             const Tree* insert_content,
                                             const DetectorOptions& options);

/// Unified read-update conflict detection — the one entry point of the
/// detector stack, a staged verdict pipeline where each stage either
/// returns a final report or hands the pair down:
///   - Stage 0 (only with options.dtd set): the schema-type disjointness
///     filter — method kTypePruned, always kNoConflict, no automata work;
///   - Stage 1: dispatch on the update's kind and the read's shape —
///     linear read: the complete polynomial algorithms (Theorems 1-2,
///     Corollaries 1-2), method kLinearPtime, definitive verdict;
///     branching read: the sound mainline heuristic (method
///     kMainlineHeuristic on success);
///   - Stage 2: bounded witness search (method kBoundedSearch), which may
///     answer kUnknown when the budget does not cover the paper's witness
///     bound.
///
/// Per-call verdict/method counters and a latency histogram are reported
/// into obs::MetricsRegistry::Default(); a "Detect" span is recorded when
/// obs::TraceRecorder::Default() is enabled.
Result<ConflictReport> Detect(const Pattern& read, const UpdateOp& update,
                              const DetectorOptions& options = {});

/// Ref-based entry point: the read is an interned pattern; the detector
/// fetches its pre-minimized form from `store` (O(1), no canonicalization)
/// and otherwise behaves exactly like the value overload. The verdict is
/// identical to Detect(store.pattern(read), ...) by construction, and to
/// detection on the original (un-minimized) pattern because minimization
/// is equivalence-preserving.
///
/// This is the hot path: when `update` is bound to `store` (the ref
/// factories or UpdateOp::Bind), detection runs on the store's compiled
/// automata (PatternStore::compiled) with product results memoized in
/// NfaProductCache::Default() — no per-call regex/NFA construction.
/// Reports are identical to the value overload's on the stored pattern,
/// field for field. An update not bound to this store falls back to the
/// value overload on the resolved read. An invalid ref (or one minted by
/// another store, when detectable) returns InvalidArgument and counts
/// under detector.errors.
Result<ConflictReport> Detect(const PatternStore& store, PatternRef read,
                              const UpdateOp& update,
                              const DetectorOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_DETECTOR_H_
