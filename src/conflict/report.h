#ifndef XMLUP_CONFLICT_REPORT_H_
#define XMLUP_CONFLICT_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "xml/tree.h"

namespace xmlup {

/// Verdict of the unified detector. The problem is NP-complete in general
/// (§5), so for branching reads the detector may legitimately answer
/// kUnknown when its search budget is exhausted before the paper's witness
/// bound is covered.
enum class ConflictVerdict {
  kConflict,
  kNoConflict,
  kUnknown,
};

std::string_view ConflictVerdictName(ConflictVerdict verdict);

/// Which strategy decided a report.
enum class DetectorMethod {
  /// The complete polynomial algorithms (Theorems 1-2; linear reads).
  kLinearPtime,
  /// Sound-but-incomplete shortcut for branching reads: the linear
  /// algorithm on the read's mainline plus grafted branch models, verified
  /// against the definitional checker.
  kMainlineHeuristic,
  /// Exhaustive bounded witness search (§5 NP path).
  kBoundedSearch,
  /// Stage 0 of the staged pipeline: the schema-type disjointness filter
  /// (dtd/type_summary.h) proved the pair independent over DTD-conformant
  /// documents before any matching work. Always kNoConflict.
  kTypePruned,
  /// Branching reads the heuristic did not settle: the complete linear
  /// algorithms found no node conflict on any root-to-leaf path of the
  /// read and, under tree or value semantics, none on its mainline — a
  /// PTIME proof of independence (DESIGN.md, "Leaf-path independence
  /// certificate"). Always kNoConflict; a failed certificate hands the
  /// pair to the leaf-path witness.
  kLeafPathCertificate,
  /// Branching reads the certificate did not settle because some
  /// root-to-leaf path SEQ_ROOT^l has a node conflict: that path's linear
  /// witness, extended with grafted models of the read's other branches
  /// (and, if needed, the Lemma 2 uniquifying children), verified against
  /// the definitional checker (DESIGN.md, "Leaf-path witness"). Always
  /// kConflict with that witness; when no leaf path's tree passes, the
  /// pair goes to the bounded search.
  kLeafPathWitness,
};

std::string_view DetectorMethodName(DetectorMethod method);

/// Outcome of conflict detection — one type for the linear and NP paths
/// (the former LinearConflictReport is folded in: a linear report is a
/// ConflictReport with method == kLinearPtime and a definitive verdict).
struct ConflictReport {
  ConflictVerdict verdict = ConflictVerdict::kUnknown;
  /// Set when verdict == kConflict: a constructed tree re-validated with
  /// the Lemma 1 checker — applying the update to it changes the read's
  /// result under the requested semantics.
  std::optional<Tree> witness;
  DetectorMethod method = DetectorMethod::kLinearPtime;
  /// Human-readable specifics, e.g. the read edge and matching mode that
  /// produced a linear-path conflict. May be empty.
  std::string detail;
  /// Trees enumerated by the bounded search (0 for the other methods).
  uint64_t trees_checked = 0;

  bool conflict() const { return verdict == ConflictVerdict::kConflict; }
};

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_REPORT_H_
