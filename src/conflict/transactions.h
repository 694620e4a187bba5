#ifndef XMLUP_CONFLICT_TRANSACTIONS_H_
#define XMLUP_CONFLICT_TRANSACTIONS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "conflict/update_independence.h"

namespace xmlup {

/// Transaction-level application of the §6 machinery: two *sequences* of
/// updates commute as wholes when every cross pair carries a
/// commutativity certificate — then any interleaving of the two
/// transactions produces isomorphic final documents, so a concurrency
/// layer may run them without ordering. (Pairwise certificates compose:
/// any interleaving is reachable from T1;T2 by adjacent transpositions of
/// certified cross pairs, each preserving the result up to isomorphism.)
struct TransactionReport {
  /// Certified: all |T1|·|T2| cross pairs commute.
  bool certified = false;
  /// The first uncertified cross pair (indices into T1/T2), for
  /// diagnostics; only meaningful when !certified.
  size_t t1_index = 0;
  size_t t2_index = 0;
  std::string detail;
  /// Every uncertified cross pair, as (T1 index, T2 index) in
  /// deterministic lexicographic order — the input a scheduler needs to
  /// tell "one bad pair" from "dense conflict".
  std::vector<std::pair<size_t, size_t>> uncertified;
  /// Cross pairs examined: always |T1|·|T2|, since the scan is complete.
  size_t pairs_checked = 0;
};

/// Attempts to certify that transactions `t1` and `t2` commute on every
/// document. Sound, incomplete (inherits the certificate's incompleteness).
/// Scans every cross pair and records each uncertified one.
Result<TransactionReport> CertifyTransactionsCommute(
    const std::vector<UpdateOp>& t1, const std::vector<UpdateOp>& t2,
    const DetectorOptions& options = {});

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_TRANSACTIONS_H_
