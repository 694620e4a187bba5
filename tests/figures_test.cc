// Reconstructions of the paper's Figures 1-8 as executable scenarios.
// Each test builds the figure's trees/patterns and checks the property the
// figure illustrates.

#include "conflict/containment.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/reductions.h"
#include "conflict/reparent.h"
#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class FiguresTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(FiguresTest, Figure1RestockInsertion) {
  // Figure 1 / §1: the catalog document and
  //   insert t/book[.//quantity-low], <restock/>.
  Tree t = Xml(
      "<catalog>"
      "  <book><title/><quantity><low/></quantity></book>"
      "  <book><title/><quantity><high/></quantity></book>"
      "  <book><quantity><low/></quantity></book>"
      "</catalog>",
      symbols_);
  const Pattern condition = Xp("catalog/book[.//low]", symbols_);
  const std::vector<NodeId> points = Evaluate(condition, t);
  ASSERT_EQ(points.size(), 2u);
  Tree restock = Xml("<restock/>", symbols_);
  InsertAt(&t, points, restock);
  EXPECT_EQ(Evaluate(Xp("catalog/book/restock", symbols_), t).size(), 2u);
  EXPECT_EQ(Evaluate(Xp("catalog/book[.//high]/restock", symbols_), t).size(),
            0u);
}

TEST_F(FiguresTest, Figure2EmbeddingExample) {
  // Figure 2: pattern a[.//c]/b[d][*//f] embeds into its model; the
  // evaluation selects the b node.
  const Pattern p = Xp("a[.//c]/b[d][*//f]", symbols_);
  Tree t = Xml("<a><x><c/></x><b><d/><e><g><f/></g></e></b></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(p, t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(t.LabelName(result[0]), "b");
}

TEST_F(FiguresTest, Figure3ReferenceVsValueConflict) {
  // Figure 3: deletion removes one of two isomorphic γ results — a
  // reference (node) conflict but not a value conflict.
  Tree w = Xml("<r><del><g/></del><keep><g/></keep></r>", symbols_);
  const Pattern read = Xp("r//g", symbols_);
  const Pattern del = Xp("r/del", symbols_);
  EXPECT_TRUE(IsReadDeleteWitness(read, del, w, ConflictSemantics::kNode));
  EXPECT_FALSE(IsReadDeleteWitness(read, del, w, ConflictSemantics::kValue));
}

TEST_F(FiguresTest, Figure4ReadInsertConflictStructure) {
  // Figure 4a: node conflict — the read crosses into the inserted X.
  // R = x//A/B, I at x/u, X = <A><B/></A>.
  const Pattern read = Xp("x//A/B", symbols_);
  const Pattern ins = Xp("x/u", symbols_);
  Tree x_tree = Xml("<A><B/></A>", symbols_);
  Result<ConflictReport> r = DetectLinearReadInsertConflict(
      read, ins, x_tree, ConflictSemantics::kNode);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->conflict());
  // Figure 4b: tree conflict — the insertion lands below a read result.
  const Pattern read_above = Xp("x//A", symbols_);
  const Pattern ins_below = Xp("x//A/B", symbols_);
  Tree small_x = Xml("<C/>", symbols_);
  Result<ConflictReport> node_sem = DetectLinearReadInsertConflict(
      read_above, ins_below, small_x, ConflictSemantics::kNode);
  ASSERT_TRUE(node_sem.ok());
  EXPECT_FALSE(node_sem->conflict());
  Result<ConflictReport> tree_sem = DetectLinearReadInsertConflict(
      read_above, ins_below, small_x, ConflictSemantics::kTree);
  ASSERT_TRUE(tree_sem.ok());
  EXPECT_TRUE(tree_sem->conflict());
}

TEST_F(FiguresTest, Figure5ReadDeleteConflictStructure) {
  // Figure 5: read R and delete D both match down a path; the deletion
  // point is an ancestor of the read result.
  const Pattern read = Xp("r//m//v", symbols_);
  const Pattern del = Xp("r/s//m", symbols_);
  Result<ConflictReport> r =
      DetectLinearReadDeleteConflict(read, del, ConflictSemantics::kNode);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->conflict());
  ASSERT_TRUE(r->witness.has_value());
  EXPECT_TRUE(
      IsReadDeleteWitness(read, del, *r->witness, ConflictSemantics::kNode));
}

TEST_F(FiguresTest, Figure6ReparentStructure) {
  // Figure 6: reparenting moves v's subtree behind a chain of k+1 α nodes
  // under u.
  Tree t = Xml("<u><p1><p2><p3><p4><p5><v><sub/></v></p5></p4></p3></p2></p1></u>",
               symbols_);
  NodeId v = kNullNode;
  for (NodeId n : t.PreOrder()) {
    if (t.LabelName(n) == "v") v = n;
  }
  const size_t k = 2;
  const ReparentResult r =
      Reparent(t, t.root(), v, k, symbols_->Intern("ALPHA"));
  const NodeId new_v = r.mapping.at(v);
  // v now sits k+1 alpha nodes below u.
  NodeId cur = new_v;
  for (size_t i = 0; i < k + 1; ++i) {
    cur = r.tree.parent(cur);
    EXPECT_EQ(r.tree.LabelName(cur), "ALPHA");
  }
  // The chain hangs directly under u (which was the root).
  EXPECT_EQ(r.tree.parent(cur), r.tree.root());
  EXPECT_TRUE(r.tree.Validate().ok());
}

TEST_F(FiguresTest, Figure7ReadInsertReduction) {
  // Figure 7: the Theorem 4 construction for p = m//n, p' = m/n (p ⊄ p').
  const Pattern p = Xp("m//n", symbols_);
  const Pattern q = Xp("m/n", symbols_);
  const ReadInsertReduction reduction =
      ReduceNonContainmentToReadInsert(p, q);
  const ContainmentDecision d = DecideContainment(p, q);
  ASSERT_FALSE(d.contained);
  Result<Tree> witness =
      BuildReadInsertReductionWitness(reduction, q, *d.counterexample);
  ASSERT_TRUE(witness.ok()) << witness.status();
  // Figure 7d shape: α root with two β children.
  const Tree& w = *witness;
  EXPECT_EQ(w.label(w.root()), reduction.alpha);
  const std::vector<NodeId> kids = w.Children(w.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(w.label(kids[0]), reduction.beta);
  EXPECT_EQ(w.label(kids[1]), reduction.beta);
  // R(W) is empty; R(I(W)) selects the root.
  EXPECT_TRUE(Evaluate(reduction.read, w).empty());
}

TEST_F(FiguresTest, Figure8ReadDeleteReduction) {
  const Pattern p = Xp("m//n", symbols_);
  const Pattern q = Xp("m/n", symbols_);
  const ReadDeleteReduction reduction = ReduceNonContainmentToReadDelete(p, q);
  const ContainmentDecision d = DecideContainment(p, q);
  ASSERT_FALSE(d.contained);
  Result<Tree> witness =
      BuildReadDeleteReductionWitness(reduction, q, *d.counterexample);
  ASSERT_TRUE(witness.ok()) << witness.status();
  // Figure 8c shape: α root with a β child (holding t_p) and a γ child
  // (holding a model of p'). Before the delete R selects the root.
  const Tree& w = *witness;
  const std::vector<NodeId> kids = w.Children(w.root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(w.label(kids[0]), reduction.beta);
  EXPECT_EQ(w.label(kids[1]), reduction.gamma);
  EXPECT_EQ(Evaluate(reduction.read, w).size(), 1u);
}

}  // namespace
}  // namespace xmlup
