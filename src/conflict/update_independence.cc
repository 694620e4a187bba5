#include "conflict/update_independence.h"

namespace xmlup {
namespace {

/// Treats `read_op`'s own pattern evaluation as a read and asks whether
/// the other update can ever change it (`options` carries node semantics).
/// Ops bound to a PatternStore go through the ref facade, so callers that
/// Bind their ops once (the dependence graph, merge) pay no per-pair
/// canonicalization here.
Result<ConflictReport> PatternVsUpdate(const UpdateOp& read_op,
                                       const UpdateOp& update,
                                       const DetectorOptions& options) {
  if (read_op.pattern_store() != nullptr && read_op.pattern_ref().valid()) {
    return Detect(*read_op.pattern_store(), read_op.pattern_ref(), update,
                  options);
  }
  return Detect(read_op.pattern(), update, options);
}

}  // namespace

Result<IndependenceReport> CertifyUpdatesCommute(
    const UpdateOp& o1, const UpdateOp& o2, const DetectorOptions& options) {
  IndependenceReport report;
  DetectorOptions node_options = options;
  node_options.semantics = ConflictSemantics::kNode;
  // The report carries no witness, so none is built or re-checked.
  node_options.build_witness = false;

  // Soundness argument (see header): if neither update can change the
  // other's selected point set — on *any* tree — then in either order both
  // updates fire on identical points, points never sit inside subtrees the
  // other order deletes, and fresh inserted copies are never selected; the
  // two results are isomorphic.
  XMLUP_ASSIGN_OR_RETURN(ConflictReport o1_affects_o2,
                         PatternVsUpdate(o2, o1, node_options));
  if (o1_affects_o2.verdict != ConflictVerdict::kNoConflict) {
    report.certificate = CommutativityCertificate::kUnknown;
    report.detail = o1_affects_o2.verdict == ConflictVerdict::kConflict
                        ? "o1 may change o2's selection (conflict)"
                        : "o1 may change o2's selection (unknown)";
    return report;
  }
  XMLUP_ASSIGN_OR_RETURN(ConflictReport o2_affects_o1,
                         PatternVsUpdate(o1, o2, node_options));
  if (o2_affects_o1.verdict != ConflictVerdict::kNoConflict) {
    report.certificate = CommutativityCertificate::kUnknown;
    report.detail = o2_affects_o1.verdict == ConflictVerdict::kConflict
                        ? "o2 may change o1's selection (conflict)"
                        : "o2 may change o1's selection (unknown)";
    return report;
  }
  report.certificate = CommutativityCertificate::kCertified;
  report.detail = "selection sets provably stable in both directions";
  return report;
}

}  // namespace xmlup
