#include "conflict/transactions.h"

#include <memory>
#include <utility>

#include "pattern/pattern_store.h"

namespace xmlup {

Result<TransactionReport> CertifyTransactionsCommute(
    const std::vector<UpdateOp>& t1, const std::vector<UpdateOp>& t2,
    const DetectorOptions& options) {
  TransactionReport report;
  // Bind every op to a transaction-local store up front: each pattern is
  // minimized and canonicalized once here, and the |T1|·|T2| cross-pair
  // loop below runs on interned refs.
  auto store = std::make_shared<PatternStore>();
  std::vector<UpdateOp> b1;
  b1.reserve(t1.size());
  for (const UpdateOp& op : t1) b1.push_back(op.Bind(store));
  std::vector<UpdateOp> b2;
  b2.reserve(t2.size());
  for (const UpdateOp& op : t2) b2.push_back(op.Bind(store));
  for (size_t i = 0; i < b1.size(); ++i) {
    for (size_t j = 0; j < b2.size(); ++j) {
      ++report.pairs_checked;
      XMLUP_ASSIGN_OR_RETURN(IndependenceReport pair,
                             CertifyUpdatesCommute(b1[i], b2[j], options));
      if (pair.certificate == CommutativityCertificate::kCertified) continue;
      if (report.uncertified.empty()) {
        report.t1_index = i;
        report.t2_index = j;
        report.detail = std::move(pair.detail);
      }
      report.uncertified.emplace_back(i, j);
    }
  }
  report.certified = report.uncertified.empty();
  if (report.certified) report.detail = "all cross pairs certified";
  return report;
}

}  // namespace xmlup
