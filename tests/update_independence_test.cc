#include "conflict/update_independence.h"

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class UpdateIndependenceTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  UpdateOp Ins(const char* pattern, const char* x) {
    return UpdateOp::MakeInsert(
        Xp(pattern, symbols_),
        std::make_shared<const Tree>(Xml(x, symbols_)));
  }
  UpdateOp Del(const char* pattern) {
    Result<UpdateOp> op = UpdateOp::MakeDelete(Xp(pattern, symbols_));
    EXPECT_TRUE(op.ok());
    return std::move(op).value();
  }

  CommutativityCertificate Certify(const UpdateOp& a, const UpdateOp& b) {
    Result<IndependenceReport> r = CertifyUpdatesCommute(a, b);
    EXPECT_TRUE(r.ok()) << r.status();
    return r->certificate;
  }
};

TEST_F(UpdateIndependenceTest, DisjointInsertsCertified) {
  EXPECT_EQ(Certify(Ins("a/x", "<m/>"), Ins("a/y", "<n/>")),
            CommutativityCertificate::kCertified);
}

TEST_F(UpdateIndependenceTest, IdenticalInsertsCertified) {
  // §6: identical insertions ought not to conflict; the certificate covers
  // them because inserting <c/> under b never changes [[a/b]].
  EXPECT_EQ(Certify(Ins("a/b", "<c/>"), Ins("a/b", "<c/>")),
            CommutativityCertificate::kCertified);
}

TEST_F(UpdateIndependenceTest, EnablingInsertNotCertified) {
  const UpdateOp i1 = Ins("a", "<b/>");
  const UpdateOp i2 = Ins("a/b", "<c/>");
  EXPECT_EQ(Certify(i1, i2), CommutativityCertificate::kUnknown);
  // And indeed they do not commute: the brute force finds a violation.
  BoundedSearchOptions options;
  options.max_nodes = 3;
  EXPECT_EQ(FindCommutativityViolation(i1, i2, options).outcome,
            SearchOutcome::kWitnessFound);
}

TEST_F(UpdateIndependenceTest, InsertDeleteDisjointCertified) {
  EXPECT_EQ(Certify(Ins("a/x", "<m/>"), Del("a/y")),
            CommutativityCertificate::kCertified);
}

TEST_F(UpdateIndependenceTest, DeleteOfInsertTargetNotCertified) {
  EXPECT_EQ(Certify(Ins("a/b", "<c/>"), Del("a/b")),
            CommutativityCertificate::kUnknown);
}

TEST_F(UpdateIndependenceTest, DeleteBelowInsertPointsCertified) {
  // The delete removes b children of the very a nodes the insert grafts
  // under: strictly below the insert's points, so neither selection
  // changes under node semantics, and the two commute on every tree.
  const UpdateOp del = Del("r/a/b");
  const UpdateOp ins = Ins("r/a", "<c/>");
  EXPECT_EQ(Certify(del, ins), CommutativityCertificate::kCertified);
  BoundedSearchOptions options;
  options.max_nodes = 6;
  const BruteForceResult violation =
      FindCommutativityViolation(del, ins, options);
  EXPECT_EQ(violation.outcome, SearchOutcome::kExhaustedNoWitness);
  EXPECT_FALSE(violation.truncated);
}

TEST_F(UpdateIndependenceTest, NestedDeletesNotCertified) {
  // Deleting b subtrees removes the other delete's b/c points.
  EXPECT_EQ(Certify(Del("a/b"), Del("a/b/c")),
            CommutativityCertificate::kUnknown);
}

TEST_F(UpdateIndependenceTest, SiblingDeletesCertified) {
  EXPECT_EQ(Certify(Del("a/x"), Del("a/y")),
            CommutativityCertificate::kCertified);
}

TEST_F(UpdateIndependenceTest, DetailIsPopulated) {
  Result<IndependenceReport> r =
      CertifyUpdatesCommute(Ins("a", "<b/>"), Ins("a/b", "<c/>"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->detail.empty());
}

/// Soundness sweep: every certified pair must survive an exhaustive
/// commutativity-violation search over small trees.
class CertificatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CertificatePropertyTest, CertifiedPairsNeverViolate) {
  auto symbols = NewSymbols();
  Rng rng(40000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);

  auto random_update = [&](Rng* r) -> UpdateOp {
    if (r->NextBool(0.5)) {
      Tree content(symbols);
      content.CreateRoot(options.alphabet[r->NextBounded(2)]);
      return UpdateOp::MakeInsert(
          gen.GenerateLinear(r),
          std::make_shared<const Tree>(std::move(content)));
    }
    for (;;) {
      Pattern p = gen.GenerateLinear(r);
      Result<UpdateOp> del = UpdateOp::MakeDelete(std::move(p));
      if (del.ok()) return std::move(del).value();
    }
  };

  int certified = 0;
  for (int iter = 0; iter < 12; ++iter) {
    const UpdateOp o1 = random_update(&rng);
    const UpdateOp o2 = random_update(&rng);
    Result<IndependenceReport> cert = CertifyUpdatesCommute(o1, o2);
    ASSERT_TRUE(cert.ok());
    if (cert->certificate != CommutativityCertificate::kCertified) continue;
    ++certified;
    BoundedSearchOptions search;
    search.max_nodes = 4;
    const BruteForceResult violation =
        FindCommutativityViolation(o1, o2, search);
    EXPECT_NE(violation.outcome, SearchOutcome::kWitnessFound)
        << "certified pair violates commutativity; seed=" << GetParam()
        << " iter=" << iter;
  }
  // The sweep should certify at least something, or it tests nothing.
  EXPECT_GT(certified, 0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, CertificatePropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace xmlup
