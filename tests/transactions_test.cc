#include "conflict/transactions.h"

#include <utility>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class TransactionsTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  UpdateOp Ins(const char* pattern, const char* x) {
    return UpdateOp::MakeInsert(
        Xp(pattern, symbols_),
        std::make_shared<const Tree>(Xml(x, symbols_)));
  }
  UpdateOp Del(const char* pattern) {
    return std::move(UpdateOp::MakeDelete(Xp(pattern, symbols_)).value());
  }
};

TEST_F(TransactionsTest, DisjointTransactionsCertified) {
  // t1 works under shop/a, t2 under shop/b: every cross pair is
  // label-disjoint, so the whole pair of transactions certifies.
  std::vector<UpdateOp> t1;
  t1.push_back(Ins("shop/a", "<m/>"));
  t1.push_back(Del("shop/a/m"));
  std::vector<UpdateOp> t2;
  t2.push_back(Ins("shop/b", "<n/>"));
  t2.push_back(Del("shop/b/n"));
  Result<TransactionReport> report = CertifyTransactionsCommute(t1, t2);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->certified);
  EXPECT_EQ(report->pairs_checked, 4u);
  EXPECT_TRUE(report->uncertified.empty());
}

TEST_F(TransactionsTest, LabelDisjointTransactionsCertify) {
  std::vector<UpdateOp> t1;
  t1.push_back(Ins("shop/a", "<m/>"));
  std::vector<UpdateOp> t2;
  t2.push_back(Ins("shop/b", "<n/>"));
  t2.push_back(Del("shop/c"));
  Result<TransactionReport> report = CertifyTransactionsCommute(t1, t2);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->certified);
  EXPECT_EQ(report->pairs_checked, 2u);
}

TEST_F(TransactionsTest, ConflictingPairIsReportedWithIndices) {
  std::vector<UpdateOp> t1;
  t1.push_back(Ins("shop/x", "<m/>"));   // harmless
  t1.push_back(Ins("shop", "<b/>"));     // enables t2[1]
  std::vector<UpdateOp> t2;
  t2.push_back(Del("shop/zz"));          // harmless
  t2.push_back(Ins("shop/b", "<c/>"));   // fires on t1[1]'s output
  Result<TransactionReport> report = CertifyTransactionsCommute(t1, t2);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->certified);
  EXPECT_EQ(report->t1_index, 1u);
  EXPECT_EQ(report->t2_index, 1u);
  EXPECT_FALSE(report->detail.empty());
  EXPECT_EQ(report->pairs_checked, 4u);
}

TEST_F(TransactionsTest, ScanRecordsEveryUncertifiedPair) {
  // Two uncertified cross pairs, (0,0) and (1,1): the scan covers all
  // |T1|·|T2| pairs and records both, while the first-pair diagnostics
  // name the first.
  std::vector<UpdateOp> t1;
  t1.push_back(Ins("shop", "<b/>"));
  t1.push_back(Ins("shop", "<d/>"));
  std::vector<UpdateOp> t2;
  t2.push_back(Ins("shop/b", "<c/>"));
  t2.push_back(Ins("shop/d", "<e/>"));
  Result<TransactionReport> report = CertifyTransactionsCommute(t1, t2);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->certified);
  EXPECT_EQ(report->pairs_checked, 4u);
  ASSERT_EQ(report->uncertified.size(), 2u);
  EXPECT_EQ(report->uncertified[0], std::make_pair(size_t{0}, size_t{0}));
  EXPECT_EQ(report->uncertified[1], std::make_pair(size_t{1}, size_t{1}));
  EXPECT_EQ(report->t1_index, 0u);
  EXPECT_EQ(report->t2_index, 0u);
  EXPECT_FALSE(report->detail.empty());
}

TEST_F(TransactionsTest, CertifiedTransactionsCommuteInPractice) {
  std::vector<UpdateOp> t1;
  t1.push_back(Ins("shop/a", "<m/>"));
  t1.push_back(Del("shop/a/old"));
  std::vector<UpdateOp> t2;
  t2.push_back(Ins("shop/b", "<n/>"));
  Result<TransactionReport> report = CertifyTransactionsCommute(t1, t2);
  ASSERT_TRUE(report.ok());
  if (!report->certified) GTEST_SKIP() << "certificate did not apply";

  Rng rng(5);
  TreeGenOptions options;
  options.target_size = 30;
  options.alphabet = {symbols_->Intern("shop"), symbols_->Intern("a"),
                      symbols_->Intern("b"), symbols_->Intern("old"),
                      symbols_->Intern("m")};
  RandomTreeGenerator trees(symbols_, options);
  for (int i = 0; i < 10; ++i) {
    const Tree base = trees.Generate(&rng);
    Tree order12 = CopyTree(base);
    for (const UpdateOp& op : t1) op.ApplyInPlace(&order12);
    for (const UpdateOp& op : t2) op.ApplyInPlace(&order12);
    Tree order21 = CopyTree(base);
    for (const UpdateOp& op : t2) op.ApplyInPlace(&order21);
    for (const UpdateOp& op : t1) op.ApplyInPlace(&order21);
    EXPECT_EQ(CanonicalCode(order12), CanonicalCode(order21)) << "i=" << i;
  }
}

TEST_F(TransactionsTest, EmptyTransactionsCertifyTrivially) {
  Result<TransactionReport> report =
      CertifyTransactionsCommute({}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->certified);
  EXPECT_EQ(report->pairs_checked, 0u);
}

}  // namespace
}  // namespace xmlup
