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
