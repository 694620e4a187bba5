// The leaf-path independence certificate (Stage 1b of Detect; proof in
// DESIGN.md) checked against the definition: every pair it certifies must
// have no witness in a complete search over small trees. The leaf-path
// witness (Stage 1c) is checked on the same pairs: every tree it returns
// must pass the Lemma 1 checker.

#include <set>
#include <string>
#include <vector>

#include "conflict/bounded_search.h"
#include "conflict/detector.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"
#include "xml/xml_writer.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

/// Every branching read (Pattern::IsLinear() false) of at most three nodes
/// over the labels {a, b, *} and both axes, with every choice of output
/// node, once per CanonicalPatternCode.
std::vector<Pattern> SmallBranchingReads(
    const std::shared_ptr<SymbolTable>& symbols) {
  const Label labels[] = {symbols->Intern("a"), symbols->Intern("b"),
                          kWildcardLabel};
  const Axis axes[] = {Axis::kChild, Axis::kDescendant};
  std::vector<Pattern> candidates;
  for (Label l0 : labels) {
    for (Label l1 : labels) {
      for (Axis x1 : axes) {
        // Two nodes: root/child.
        for (int out = 0; out < 2; ++out) {
          Pattern p(symbols);
          const PatternNodeId r = p.CreateRoot(l0);
          const PatternNodeId c = p.AddChild(r, l1, x1);
          p.SetOutput(out == 0 ? r : c);
          candidates.push_back(std::move(p));
        }
        for (Label l2 : labels) {
          for (Axis x2 : axes) {
            // Three nodes: a chain and a fork.
            for (bool fork : {false, true}) {
              for (int out = 0; out < 3; ++out) {
                Pattern p(symbols);
                const PatternNodeId r = p.CreateRoot(l0);
                const PatternNodeId c = p.AddChild(r, l1, x1);
                const PatternNodeId d = p.AddChild(fork ? r : c, l2, x2);
                p.SetOutput(out == 0 ? r : out == 1 ? c : d);
                candidates.push_back(std::move(p));
              }
            }
          }
        }
      }
    }
  }
  std::set<std::string> seen;
  std::vector<Pattern> reads;
  for (Pattern& p : candidates) {
    if (p.IsLinear() || !seen.insert(CanonicalPatternCode(p)).second) continue;
    reads.push_back(std::move(p));
  }
  return reads;
}

struct NamedUpdate {
  std::string name;
  UpdateOp op;
};

std::vector<NamedUpdate> FixedUpdates(
    const std::shared_ptr<SymbolTable>& symbols) {
  auto content = [&](const char* xml) {
    return std::make_shared<const Tree>(Xml(xml, symbols));
  };
  std::vector<NamedUpdate> updates;
  updates.push_back(
      {"delete a/b", UpdateOp::MakeDelete(Xp("a/b", symbols)).value()});
  updates.push_back(
      {"delete a//*[b]", UpdateOp::MakeDelete(Xp("a//*[b]", symbols)).value()});
  updates.push_back({"insert <b/> at a",
                     UpdateOp::MakeInsert(Xp("a", symbols), content("<b/>"))});
  updates.push_back(
      {"insert <a><b/></a> at a//*",
       UpdateOp::MakeInsert(Xp("a//*", symbols), content("<a><b/></a>"))});
  updates.push_back(
      {"insert <b/> at a[b]",
       UpdateOp::MakeInsert(Xp("a[b]", symbols), content("<b/>"))});
  return updates;
}

/// The complete search over every tree of at most `max_nodes` nodes on the
/// pair's labels plus one fresh label — enough for node and tree semantics,
/// which no relabeling of labels outside the patterns and the content can
/// affect.
BruteForceResult CompleteSearch(const Pattern& read, const UpdateOp& update,
                                ConflictSemantics semantics,
                                size_t max_nodes) {
  BoundedSearchOptions options;
  options.max_nodes = max_nodes;
  return update.kind() == UpdateOp::Kind::kInsert
             ? BruteForceReadInsertSearch(read, update.pattern(),
                                          update.content(), semantics, options)
             : BruteForceReadDeleteSearch(read, update.pattern(), semantics,
                                          options);
}

class LeafPathCertificateTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(LeafPathCertificateTest, CertifiedSmallPairsHaveNoWitness) {
  const std::vector<Pattern> reads = SmallBranchingReads(symbols_);
  ASSERT_EQ(reads.size(), 405u);
  const std::vector<NamedUpdate> updates = FixedUpdates(symbols_);
  const obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "detector.method.leaf_path_certificate");
  const uint64_t counter_before = counter.value();
  size_t certified = 0;
  for (ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kTree}) {
    DetectorOptions options;
    options.semantics = semantics;
    // Only the stages before the search matter here; a one-node search
    // keeps the uncertified pairs cheap.
    options.search.max_nodes = 1;
    for (const Pattern& read : reads) {
      for (const NamedUpdate& update : updates) {
        const Result<ConflictReport> report =
            Detect(read, update.op, options);
        ASSERT_TRUE(report.ok()) << report.status();
        if (report->method != DetectorMethod::kLeafPathCertificate) continue;
        ++certified;
        EXPECT_EQ(report->verdict, ConflictVerdict::kNoConflict);
        const BruteForceResult search =
            CompleteSearch(read, update.op, semantics, /*max_nodes=*/5);
        EXPECT_EQ(search.outcome, SearchOutcome::kExhaustedNoWitness)
            << CanonicalPatternCode(read) << " vs " << update.name << " ("
            << ConflictSemanticsName(semantics) << "): witness "
            << (search.witness ? WriteXml(*search.witness) : "-");
        EXPECT_FALSE(search.truncated);
      }
    }
  }
  // The oracle must not pass vacuously: the certificate settles 1 834 of
  // the 4 050 pairs.
  EXPECT_GE(certified, 1800u);
  EXPECT_EQ(counter.value() - counter_before, certified);
}

/// The leaf-path witness (Stage 1c of Detect) checked against the
/// definition on the same pairs, under all three semantics: every pair it
/// decides carries a witness the Lemma 1 checker accepts, and no pair it
/// decides is proved independent by a complete search.
TEST_F(LeafPathCertificateTest, LeafPathWitnessesOnSmallPairsAreVerified) {
  const std::vector<Pattern> reads = SmallBranchingReads(symbols_);
  ASSERT_EQ(reads.size(), 405u);
  const std::vector<NamedUpdate> updates = FixedUpdates(symbols_);
  const obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "detector.method.leaf_path_witness");
  const uint64_t counter_before = counter.value();
  size_t decided = 0;
  size_t searched = 0;
  for (ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kTree,
        ConflictSemantics::kValue}) {
    DetectorOptions options;
    options.semantics = semantics;
    // The stage runs before the search; a one-node search keeps the pairs
    // it leaves cheap.
    options.search.max_nodes = 1;
    for (const Pattern& read : reads) {
      for (const NamedUpdate& update : updates) {
        const Result<ConflictReport> report =
            Detect(read, update.op, options);
        ASSERT_TRUE(report.ok()) << report.status();
        if (report->method != DetectorMethod::kLeafPathWitness) continue;
        ++decided;
        const std::string pair = CanonicalPatternCode(read) + " vs " +
                                 update.name + " (" +
                                 std::string(ConflictSemanticsName(semantics)) +
                                 ")";
        EXPECT_EQ(report->verdict, ConflictVerdict::kConflict) << pair;
        ASSERT_TRUE(report->witness.has_value()) << pair;
        const bool accepted =
            update.op.kind() == UpdateOp::Kind::kInsert
                ? IsReadInsertWitness(read, update.op.pattern(),
                                      update.op.content(), *report->witness,
                                      semantics)
                : IsReadDeleteWitness(read, update.op.pattern(),
                                      *report->witness, semantics);
        EXPECT_TRUE(accepted) << pair << ": " << WriteXml(*report->witness);
        const size_t bound = PaperWitnessBound(read, update.op.pattern());
        if (bound > 5) continue;
        ++searched;
        const BruteForceResult search =
            CompleteSearch(read, update.op, semantics, bound);
        EXPECT_NE(search.outcome, SearchOutcome::kExhaustedNoWitness) << pair;
      }
    }
  }
  // The sweep must not pass vacuously: the stage decides 424 of the
  // 6 075 pairs, 32 of them with a paper bound of at most 5.
  EXPECT_GE(decided, 400u);
  EXPECT_GE(searched, 30u);
  EXPECT_EQ(counter.value() - counter_before, decided);
}

TEST_F(LeafPathCertificateTest, NodeConflictOnANonOutputLeafIsNotCertified) {
  // Deleting a/b never touches the mainline a, but it removes the b that
  // a[b]'s predicate needs: the leaf path a/b carries the conflict.
  const Pattern read = Xp("a[b]", symbols_);
  const UpdateOp del = UpdateOp::MakeDelete(Xp("a/b", symbols_)).value();
  const Result<ConflictReport> report = Detect(read, del);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConflictVerdict::kConflict);
  // That path's own witness, checked against the full read, settles it.
  EXPECT_EQ(report->method, DetectorMethod::kLeafPathWitness);
  ASSERT_TRUE(report->witness.has_value());
  EXPECT_TRUE(IsReadDeleteWitness(read, del.pattern(), *report->witness,
                                  ConflictSemantics::kNode));
}

TEST_F(LeafPathCertificateTest, TreeConflictBelowAResultIsNotCertified) {
  // The inserted content has no b, so no leaf path gains a result; but
  // the insert lands below a c that stays a result, which changes that
  // result's subtree. Only the mainline's tree-semantics report sees it.
  const Pattern read = Xp("a//c[b][.//b]", symbols_);
  const UpdateOp insert =
      UpdateOp::MakeInsert(Xp("a//*[b//b]", symbols_),
                           std::make_shared<const Tree>(
                               Xml("<a><c><c/></c><c/></a>", symbols_)));
  DetectorOptions options;
  options.semantics = ConflictSemantics::kTree;
  const Result<ConflictReport> report = Detect(read, insert, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConflictVerdict::kConflict);
  ASSERT_TRUE(report->witness.has_value());
  // The heuristic cannot extend the mainline's witness here; the search
  // finds one (a/c/b/b, the insert firing at c).
  EXPECT_EQ(report->method, DetectorMethod::kBoundedSearch);
  EXPECT_TRUE(IsReadInsertWitness(read, insert.pattern(), insert.content(),
                                  *report->witness, ConflictSemantics::kTree));
}

}  // namespace
}  // namespace xmlup
