#include "merge/merge_executor.h"

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "conflict/update_independence.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class MergeTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  Engine engine_{symbols_};

  UpdateOp Ins(const char* pattern, const char* x) {
    return UpdateOp::MakeInsert(
        Xp(pattern, symbols_),
        std::make_shared<const Tree>(Xml(x, symbols_)));
  }
  UpdateOp Del(const char* pattern) {
    return std::move(UpdateOp::MakeDelete(Xp(pattern, symbols_)).value());
  }

  /// Merges `sessions` into a fresh parse of `seed` and checks the merged
  /// tree against the serial reference; returns the report.
  MergeReport MergeChecked(const char* seed,
                           const std::vector<std::vector<UpdateOp>>& sessions,
                           MergeOptions options = {}) {
    const MergeExecutor executor(&engine_, options);
    Tree merged = Xml(seed, symbols_);
    Result<MergeReport> report = executor.Merge(&merged, sessions);
    EXPECT_TRUE(report.ok()) << report.status();
    Tree reference = Xml(seed, symbols_);
    ApplySerialReference(&reference, sessions, *report);
    EXPECT_EQ(CanonicalCode(merged), CanonicalCode(reference));
    EXPECT_EQ(report->accepted + report->serialized + report->rejected,
              report->ops_total);
    return *std::move(report);
  }
};

TEST_F(MergeTest, DisjointSessionsAllAccepted) {
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop/a", "<m/>")},
      {Ins("shop/b", "<n/>")},
  };
  const MergeReport report =
      MergeChecked("<shop><a/><b/></shop>", sessions);
  EXPECT_EQ(report.ops_total, 2u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.serialized, 0u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.levels, 1u);
  EXPECT_EQ(report.width, 2u);
  EXPECT_EQ(report.pairs_checked, 1u);
  EXPECT_EQ(report.pairs_certified, 1u);
  for (const MergeOpReport& op : report.ops) {
    EXPECT_EQ(op.outcome, MergeOutcome::kAccepted);
    EXPECT_EQ(op.level, 0u);
    EXPECT_TRUE(op.detail.empty());
  }
}

TEST_F(MergeTest, CrossSessionConflictSerializesInSessionOrder) {
  // Session 0 inserts a fresh b under shop; session 1 inserts under shop/b
  // — its selected set depends on whether session 0 ran first. The
  // certificate cannot clear the pair, so both ops serialize and span two
  // levels, and the merged tree must equal session 0 before session 1.
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop", "<b/>")},
      {Ins("shop/b", "<c/>")},
  };
  const MergeReport report = MergeChecked("<shop><b/></shop>", sessions);
  EXPECT_EQ(report.ops_total, 2u);
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_EQ(report.serialized, 2u);
  EXPECT_EQ(report.levels, 2u);
  EXPECT_EQ(report.width, 1u);
  EXPECT_EQ(report.ops[0].level, 0u);
  EXPECT_EQ(report.ops[1].level, 1u);
  EXPECT_FALSE(report.ops[0].detail.empty());
  EXPECT_FALSE(report.ops[1].detail.empty());
}

TEST_F(MergeTest, RejectPolicyDropsLaterConflictingOp) {
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop", "<b/>")},
      {Ins("shop/b", "<c/>")},
  };
  MergeOptions options;
  options.policy = ConflictPolicy::kReject;
  const MergeReport report =
      MergeChecked("<shop><b/></shop>", sessions, options);
  EXPECT_EQ(report.ops_total, 2u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.serialized, 0u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.ops[0].outcome, MergeOutcome::kAccepted);
  EXPECT_EQ(report.ops[1].outcome, MergeOutcome::kRejected);
  // The survivor runs conflict-free, so the whole merge is one level.
  EXPECT_EQ(report.levels, 1u);
}

TEST_F(MergeTest, SameSessionConflictKeepsProgramOrderButStaysAccepted) {
  // Both ops are in one session: program order pins them to two levels,
  // but there is no cross-session conflict, so neither is "serialized".
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop", "<b/>"), Ins("shop/b", "<c/>")},
  };
  const MergeReport report = MergeChecked("<shop><b/></shop>", sessions);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.serialized, 0u);
  EXPECT_EQ(report.levels, 2u);
}

TEST_F(MergeTest, EmptyMergeIsANoOp) {
  const MergeExecutor executor(&engine_);
  Tree tree = Xml("<shop><a/></shop>", symbols_);
  const std::string before = CanonicalCode(tree);
  Result<MergeReport> report = executor.Merge(&tree, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ops_total, 0u);
  EXPECT_EQ(report->levels, 0u);
  EXPECT_EQ(CanonicalCode(tree), before);
}

TEST_F(MergeTest, ForeignSymbolTableRejected) {
  const MergeExecutor executor(&engine_);
  auto other = NewSymbols();
  Tree tree = Xml("<shop/>", other);
  Result<MergeReport> report = executor.Merge(&tree, {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MergeTest, DeleteOnAForeignSymbolTableRejected) {
  // The delete's pattern lives on another table: the merge must refuse it
  // before binding (interning a foreign pattern into the engine's store
  // is a CHECK failure), and leave the tree as it was.
  const MergeExecutor executor(&engine_);
  auto other = NewSymbols();
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("r/a", "<b/>")},
      {std::move(UpdateOp::MakeDelete(Xp("r/a", other)).value())},
  };
  Tree tree = Xml("<r><a/></r>", symbols_);
  const std::string before = CanonicalCode(tree);
  Result<MergeReport> report = executor.Merge(&tree, sessions);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("session 1 op 0"),
            std::string::npos)
      << report.status();
  EXPECT_EQ(CanonicalCode(tree), before);
}

TEST_F(MergeTest, InsertContentOnAForeignSymbolTableRejected) {
  // The pattern is on the engine's table but the content is not: grafting
  // it would bring in label ids that name other labels here (on a fresh
  // table <b/>'s label is id 0, which is r in the tree's table).
  const MergeExecutor executor(&engine_);
  auto other = NewSymbols();
  std::vector<std::vector<UpdateOp>> sessions = {{UpdateOp::MakeInsert(
      Xp("r/a", symbols_),
      std::make_shared<const Tree>(Xml("<b/>", other)))}};
  Tree tree = Xml("<r><a/></r>", symbols_);
  const std::string before = CanonicalCode(tree);
  Result<MergeReport> report = executor.Merge(&tree, sessions);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CanonicalCode(tree), before);
}

TEST_F(MergeTest, InsertsWithOnePatternAndDifferentContentCertifiedApart) {
  // Ops 0 and 1 insert at the same pattern, with different content. Op 2
  // inserts under shop/b: op 0's new b changes its selection, op 1's c
  // does not. A merge that took ops 0 and 1 for one op would hand op 1
  // op 0's certificate against op 2.
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop", "<b/>")},
      {Ins("shop", "<c/>")},
      {Ins("shop/b", "<x/>")},
  };
  const MergeReport report = MergeChecked("<shop><b/></shop>", sessions);
  // Each pair against a certificate of its own.
  std::vector<UpdateOp> ops;
  for (const auto& stream : sessions) ops.push_back(engine_.Bind(stream[0]));
  EXPECT_TRUE(engine_.CertifyCommute(ops[0], ops[1]).value().certificate ==
              CommutativityCertificate::kCertified);
  EXPECT_FALSE(engine_.CertifyCommute(ops[0], ops[2]).value().certificate ==
               CommutativityCertificate::kCertified);
  EXPECT_TRUE(engine_.CertifyCommute(ops[1], ops[2]).value().certificate ==
              CommutativityCertificate::kCertified);
  EXPECT_EQ(report.pairs_checked, 3u);
  EXPECT_EQ(report.pairs_certified, 2u);
  EXPECT_EQ(report.ops[0].outcome, MergeOutcome::kSerialized);
  EXPECT_EQ(report.ops[1].outcome, MergeOutcome::kAccepted);
  EXPECT_EQ(report.ops[2].outcome, MergeOutcome::kSerialized);
  EXPECT_TRUE(report.ops[1].detail.empty());
  EXPECT_EQ(report.ops[2].detail,
            "uncertified against session 0 op 0: o1 may change o2's "
            "selection (conflict)");
  EXPECT_EQ(report.levels, 2u);
}

TEST_F(MergeTest, OneCertificatePerDistinctOrderedOpPair) {
  // Slots A D A D N, where the two A's are one insert parsed twice (their
  // content is equal by canonical code, not by pointer), the two D's one
  // delete and N the A pattern with other content. Of the ten pairs, six
  // distinct ordered key pairs remain: AD, AA, AN, DA, DD, DN.
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop/a", "<m><k/><j/></m>"), Del("shop/b")},
      {Ins("shop/a", "<m><j/><k/></m>"), Del("shop/b")},
      {Ins("shop/a", "<n/>")},
  };
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Default().Snapshot();
  const MergeReport report =
      MergeChecked("<shop><a/><b/></shop>", sessions);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DiffSince(before);
  EXPECT_EQ(report.pairs_checked, 10u);
  EXPECT_EQ(delta.counters.at("merge.pairs_checked"), 10u);
  EXPECT_EQ(delta.counters.at("merge.certificates"), 6u);
}

TEST_F(MergeTest, ThreadCountChangesNothing) {
  // The executor's determinism contract: schedule, report and merged tree
  // are bit-identical at 1 and 8 threads (threads only parallelize the
  // read-only evaluation phase).
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop/a", "<m/>"), Del("shop/a/m")},
      {Ins("shop", "<b/>"), Ins("shop/b", "<c/>")},
      {Ins("shop/c", "<n/>")},
  };
  const char* seed = "<shop><a><m/></a><b/><c/></shop>";
  MergeOptions one;
  one.num_threads = 1;
  MergeOptions eight;
  eight.num_threads = 8;

  const MergeExecutor ex1(&engine_, one);
  const MergeExecutor ex8(&engine_, eight);
  Tree t1 = Xml(seed, symbols_);
  Tree t8 = Xml(seed, symbols_);
  Result<MergeReport> r1 = ex1.Merge(&t1, sessions);
  Result<MergeReport> r8 = ex8.Merge(&t8, sessions);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(WriteJson(r1->ToJson()), WriteJson(r8->ToJson()));
  EXPECT_TRUE(OrderedEqual(t1, t8));
}

TEST_F(MergeTest, ReportJsonShape) {
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop/a", "<m/>")},
      {Ins("shop/b", "<n/>")},
  };
  const MergeReport report = MergeChecked("<shop><a/><b/></shop>", sessions);
  const JsonValue json = report.ToJson();
  for (const char* key :
       {"ops_total", "accepted", "serialized", "rejected", "levels", "width",
        "pairs_checked", "pairs_certified", "cert_errors", "ops"}) {
    EXPECT_NE(json.Find(key), nullptr) << key;
  }
  ASSERT_NE(json.Find("ops"), nullptr);
  EXPECT_EQ(json.Find("ops")->AsArray().size(), report.ops_total);
  const JsonValue& first = json.Find("ops")->AsArray()[0];
  EXPECT_NE(first.Find("session"), nullptr);
  EXPECT_NE(first.Find("index"), nullptr);
  EXPECT_NE(first.Find("outcome"), nullptr);
  EXPECT_NE(first.Find("level"), nullptr);
}

TEST_F(MergeTest, CountersAdvance) {
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  std::vector<std::vector<UpdateOp>> sessions = {
      {Ins("shop/a", "<m/>")},
      {Ins("shop/b", "<n/>")},
  };
  MergeChecked("<shop><a/><b/></shop>", sessions);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DiffSince(before);
  EXPECT_EQ(delta.counters.at("merge.merges"), 1u);
  EXPECT_EQ(delta.counters.at("merge.ops"), 2u);
  EXPECT_EQ(delta.counters.at("merge.pairs_checked"), 1u);
  EXPECT_EQ(delta.counters.at("merge.certificates"), 1u);
}

}  // namespace
}  // namespace xmlup
