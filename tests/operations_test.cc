#include "conflict/update_op.h"

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/tree_algos.h"
#include "xml/xml_writer.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class OperationsTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  UpdateOp Insert(const char* xpath, const char* xml) {
    return UpdateOp::MakeInsert(
        Xp(xpath, symbols_), std::make_shared<const Tree>(Xml(xml, symbols_)));
  }
  UpdateOp Delete(const char* xpath) {
    Result<UpdateOp> op = UpdateOp::MakeDelete(Xp(xpath, symbols_));
    EXPECT_TRUE(op.ok()) << op.status();
    return *std::move(op);
  }
};

TEST_F(OperationsTest, InsertAtEverySelectedPoint) {
  Tree t = Xml("<a><b/><b/></a>", symbols_);
  const UpdateOp::Applied applied = Insert("a/b", "<c/>").ApplyInPlace(&t);
  EXPECT_EQ(applied.points.size(), 2u);
  EXPECT_EQ(applied.copy_roots.size(), 2u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(Evaluate(Xp("a/b/c", symbols_), t).size(), 2u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(OperationsTest, InsertCopiesAreFreshAndDisjoint) {
  Tree t = Xml("<a><b/></a>", symbols_);
  const UpdateOp insert = Insert("a/b", "<x><y/></x>");
  const UpdateOp::Applied applied = insert.ApplyInPlace(&t);
  ASSERT_EQ(applied.copy_roots.size(), 1u);
  // The inserted copy's nodes are new slots, disjoint from prior nodes.
  EXPECT_GE(applied.copy_roots[0], 2u);
  EXPECT_EQ(t.size(), 4u);
  // The content tree itself is untouched.
  EXPECT_EQ(insert.content().size(), 2u);
}

TEST_F(OperationsTest, InsertEvaluatesBeforeMutating) {
  // Inserting <b/> under b nodes must not cascade into the fresh copies.
  Tree t = Xml("<a><b/></a>", symbols_);
  Insert("a//b", "<b/>").ApplyInPlace(&t);
  EXPECT_EQ(t.size(), 3u);  // exactly one copy inserted
}

TEST_F(OperationsTest, InsertNoMatchIsNoOp) {
  Tree t = Xml("<a/>", symbols_);
  const UpdateOp::Applied applied = Insert("a/zzz", "<c/>").ApplyInPlace(&t);
  EXPECT_TRUE(applied.points.empty());
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(OperationsTest, DeleteRemovesSubtrees) {
  Tree t = Xml("<a><b><x/><y/></b><c/></a>", symbols_);
  const UpdateOp::Applied applied = Delete("a/b").ApplyInPlace(&t);
  EXPECT_EQ(applied.points.size(), 1u);
  EXPECT_TRUE(applied.copy_roots.empty());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(WriteXml(t), "<a><c/></a>");
}

TEST_F(OperationsTest, DeleteRejectsRootSelection) {
  EXPECT_FALSE(UpdateOp::MakeDelete(Xp("a", symbols_)).ok());
  Pattern p = Xp("a/b", symbols_);
  p.SetOutput(p.root());
  EXPECT_FALSE(UpdateOp::MakeDelete(p).ok());
}

TEST_F(OperationsTest, DeleteNestedPointsSubsumed) {
  // a//b selects nested b's; deleting the outer removes the inner, so only
  // the outer point is reported as removed.
  Tree t = Xml("<a><b><b/></b></a>", symbols_);
  const NodeId outer = t.first_child(t.root());
  const UpdateOp::Applied applied = Delete("a//b").ApplyInPlace(&t);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(applied.points, std::vector<NodeId>{outer});
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(OperationsTest, ApplyAtRunsTheLoopAtEarlierPoints) {
  // The split-phase entry point: the points were evaluated before the
  // tree changed, so the fresh copies are not selected again.
  Tree t = Xml("<a><b/><c><b/></c></a>", symbols_);
  const std::vector<NodeId> points = Evaluate(Xp("a//b", symbols_), t);
  ASSERT_EQ(points.size(), 2u);
  Insert("a//b", "<b/>").ApplyAt(&t, points);
  EXPECT_EQ(WriteXml(t), "<a><b><b/></b><c><b><b/></b></c></a>");
  Delete("a//b").ApplyAt(&t, points);
  EXPECT_EQ(WriteXml(t), "<a><c/></a>");
}

TEST_F(OperationsTest, PaperSection1Example) {
  // §1: insert $x/B, <C/> then read $x//C sees the new nodes, read $x//D
  // does not change.
  Tree t = Xml("<root><B/><D/></root>", symbols_);
  const Pattern read_c = Xp("root//C", symbols_);
  const Pattern read_d = Xp("root//D", symbols_);
  const std::vector<NodeId> d_before = Evaluate(read_d, t);
  EXPECT_TRUE(Evaluate(read_c, t).empty());
  Insert("root/B", "<C/>").ApplyInPlace(&t);
  EXPECT_EQ(Evaluate(read_c, t).size(), 1u);
  EXPECT_EQ(Evaluate(read_d, t), d_before);
}

}  // namespace
}  // namespace xmlup
