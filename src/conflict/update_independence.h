#ifndef XMLUP_CONFLICT_UPDATE_INDEPENDENCE_H_
#define XMLUP_CONFLICT_UPDATE_INDEPENDENCE_H_

#include <string_view>

#include "common/result.h"
#include "conflict/commutativity.h"
#include "conflict/detector.h"

namespace xmlup {

/// Sound *certificates* of update-update commutativity (§6 "Complex
/// Updates"). The general problem is NP-hard (the paper sketches
/// reductions), but a useful sufficient condition falls out of the
/// read-update machinery of §4:
///
///   If applying o1 never changes the evaluation of o2's pattern (no
///   read-update node conflict with o2's pattern as the read), and vice
///   versa, then o1 and o2 select the same points in either order, so
///   o1(o2(t)) ≅ o2(o1(t)) for every t.
///
/// For deletions the condition must also rule out one update deleting the
/// other's selected nodes or inserted content. Reading the other
/// operation's pattern under *node* semantics covers this: deleting a
/// selected node (or an ancestor) drops it from the selection, and a
/// delete that reaches the other's inserted copies selects nodes that
/// insert created — both are node conflicts. A deletion strictly below
/// the other's selected points changes no selection and commutes with it
/// (delete r/a/b against insert <c/> at r/a is certified).
///
/// The check is complete-as-a-certificate: kCertified answers are always
/// correct; kUnknown means the certificate does not apply (the updates may
/// or may not commute — fall back to FindCommutativityViolation).
enum class CommutativityCertificate {
  kCertified,
  kUnknown,
};

struct IndependenceReport {
  CommutativityCertificate certificate = CommutativityCertificate::kUnknown;
  /// Which sub-check failed, for diagnostics: fixed text, so a report
  /// costs no allocation. Callers that keep it copy it.
  std::string_view detail;
};

/// Attempts to certify that o1 and o2 commute on every tree (value
/// semantics). Uses the linear-pattern PTIME detectors where applicable;
/// non-linear patterns fall back to the bounded search inside `options`
/// (whose Unknowns propagate).
Result<IndependenceReport> CertifyUpdatesCommute(
    const UpdateOp& o1, const UpdateOp& o2,
    const DetectorOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_UPDATE_INDEPENDENCE_H_
