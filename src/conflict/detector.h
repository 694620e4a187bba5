#ifndef XMLUP_CONFLICT_DETECTOR_H_
#define XMLUP_CONFLICT_DETECTOR_H_

#include <memory>

#include "common/result.h"
#include "conflict/bounded_search.h"
#include "conflict/report.h"
#include "conflict/update_op.h"
#include "conflict/witness_check.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"
#include "xml/tree.h"

namespace xmlup {

class Dtd;

struct DetectorOptions {
  ConflictSemantics semantics = ConflictSemantics::kNode;
  /// Budget for the NP path (branching reads).
  BoundedSearchOptions search;
  /// Construct (and re-verify) a witness tree on kConflict verdicts.
  /// Verdict-only callers turn this off, since the witness construction
  /// re-runs the Lemma 1 checker per conflict: CertifyUpdatesCommute (and
  /// through it merge), Linter and DependenceAnalyzer clear it whatever
  /// their caller set. Verdict, method and detail are unaffected. Off, a
  /// linear read's core builds nothing for the witness, not even the DP
  /// matcher's match word. The
  /// branching-read heuristic and the leaf-path witness internally still
  /// build the linear witness they extend, and their reports always carry
  /// the extended tree they verified (their soundness rests on that
  /// check).
  bool build_witness = true;
  /// Schema for the Stage 0 type-pruning filter (dtd/type_summary.h).
  /// When set, detection is *conservative under the schema*: Stage 0 may
  /// answer kNoConflict (method kTypePruned) for pairs that cannot
  /// conflict on any DTD-conformant document, while Stages 1-2 keep the
  /// unrestricted-document semantics of the paper. Setting a schema can
  /// only refine kConflict/kUnknown answers into schema-sound kNoConflict
  /// ones — it never flips a no-conflict verdict. The schema must share
  /// the read's SymbolTable (labels mean nothing across tables), and a
  /// PatternStore serves one schema: the first Detect with a schema binds
  /// it to the store, which keeps it alive (PatternStore::BindSchema).
  /// Either rule broken is a counted InvalidArgument. Null disables
  /// Stage 0 entirely.
  std::shared_ptr<const Dtd> dtd;
};

/// Unified read-update conflict detection — the one entry point of the
/// detector stack, a staged verdict pipeline where each stage either
/// returns a final report or hands the pair down:
///   - Stage 0 (only with options.dtd set): the schema-type disjointness
///     filter — method kTypePruned, always kNoConflict, no matching work.
///     The one Stage 0 of the library: the batch engine, lint, the
///     dependence analyzer and the Engine facade all reach it through
///     this function. A schema whose SymbolTable is not the read's
///     returns InvalidArgument (counted under detector.errors) instead of
///     comparing labels across tables, and so does a schema other than
///     the one the store is bound to;
///   - Stage 1: dispatch on the update's kind and the read's shape —
///     linear read: the complete polynomial algorithms (Theorems 1-2,
///     Corollaries 1-2), method kLinearPtime, definitive verdict;
///     branching read: the sound mainline heuristic (method
///     kMainlineHeuristic on success);
///   - Stage 1b (branching reads the heuristic left open): the leaf-path
///     independence certificate — the complete linear algorithms under
///     node semantics on every root-to-leaf path SEQ_ROOT^l of the read,
///     each compiled on the spot, plus, under tree or value semantics, the
///     heuristic's mainline report. All clean is a PTIME proof of
///     independence: method kLeafPathCertificate, kNoConflict;
///   - Stage 1c (branching reads with a leaf path SEQ_ROOT^l that has a
///     node conflict): the leaf-path witness — for each such l in
///     pattern-node order, that path's linear witness extended with models
///     of the read's branches off the root-to-l path, plus the Lemma 2
///     uniquifying children when the first check fails. The first tree the
///     Lemma 1 checker accepts is the verdict: method kLeafPathWitness,
///     kConflict. It never answers kNoConflict;
///   - Stage 2: bounded witness search (method kBoundedSearch), which may
///     answer kUnknown when the budget does not cover the paper's witness
///     bound.
///
/// Per-call verdict and method counters are reported into
/// obs::MetricsRegistry::Default(); a "Detect" span is recorded when
/// obs::TraceRecorder::Default() is enabled.
///
/// This value overload holds no algorithm: it interns the read and binds
/// the update into a call-local PatternStore that does not minimize, so
/// both are detected exactly as given, and runs the ref overload below.
/// An empty read or update pattern, or operands from different
/// SymbolTables (read, update pattern, insert content), return
/// InvalidArgument and count under detector.errors.
Result<ConflictReport> Detect(const Pattern& read, const UpdateOp& update,
                              const DetectorOptions& options = {});

/// Ref-based entry point and the one implementation of the pipeline above:
/// the read is an interned pattern whose stored (by default pre-minimized)
/// form is fetched from `store` in O(1). The verdict equals detection on
/// the original pattern because minimization is equivalence-preserving.
///
/// When `update` is bound to `store` (the ref factories or UpdateOp::Bind),
/// Stage 1 runs on the store's compiled forms (PatternStore::compiled) —
/// the §4.1 DP matcher over precomputed chains, nothing rebuilt per call.
/// An update not bound to this store goes through the value overload on
/// the resolved read. An invalid ref (or one minted by another store, when
/// detectable), or insert content on a SymbolTable other than the
/// store's, returns InvalidArgument and counts under detector.errors, as
/// the value overload does.
Result<ConflictReport> Detect(const PatternStore& store, PatternRef read,
                              const UpdateOp& update,
                              const DetectorOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_DETECTOR_H_
