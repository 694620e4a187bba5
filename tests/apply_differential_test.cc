// UpdateOp::ApplyInPlace checked against §3's definition of the two
// updates on randomized (tree, op) pairs. INSERT_{p,X}(t) evaluates p on t
// once and grafts a fresh copy of X under every selected node; DELETE_p(t)
// removes the subtree at every selected node. Each expectation is stated
// from Evaluate on the unmodified tree, not from a second application
// loop.
//
// CopyTree numbers nodes in preorder, so two copies of one copied tree
// share NodeIds: every generated tree is copied once before ids are
// compared across runs.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;

class ApplyDefinitionTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  PatternGenOptions PatternOptions(const std::vector<Label>& alphabet) {
    PatternGenOptions options;
    options.size = 3;
    options.wildcard_prob = 0.2;
    options.descendant_prob = 0.3;
    options.alphabet = alphabet;
    return options;
  }
  TreeGenOptions TreeOptions(const std::vector<Label>& alphabet,
                             size_t size) {
    TreeGenOptions options;
    options.target_size = size;
    options.alphabet = alphabet;
    return options;
  }
};

TEST_F(ApplyDefinitionTest, InsertGraftsOneCopyOfXAtEverySelectedNode) {
  const std::vector<Label> alphabet =
      RandomTreeGenerator::MakeAlphabet(symbols_.get(), 4);
  const RandomTreeGenerator trees(symbols_, TreeOptions(alphabet, 12));
  const RandomTreeGenerator content(symbols_, TreeOptions(alphabet, 4));
  const RandomPatternGenerator patterns(symbols_, PatternOptions(alphabet));

  Rng rng(7001);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const Tree base = CopyTree(trees.Generate(&rng));
    const auto x = std::make_shared<const Tree>(content.Generate(&rng));
    const UpdateOp op =
        UpdateOp::MakeInsert(patterns.GenerateBranching(&rng), x);
    const std::vector<NodeId> selected = Evaluate(op.pattern(), base);

    Tree t = CopyTree(base);
    const UpdateOp::Applied applied = op.ApplyInPlace(&t);
    EXPECT_EQ(applied.points, selected);
    ASSERT_EQ(applied.copy_roots.size(), selected.size());
    EXPECT_EQ(t.size(), base.size() + selected.size() * x->size());
    const std::string x_code = CanonicalCode(*x);
    for (size_t i = 0; i < selected.size(); ++i) {
      const NodeId copy = applied.copy_roots[i];
      EXPECT_GE(copy, base.capacity());  // a fresh node
      EXPECT_EQ(t.parent(copy), selected[i]);
      EXPECT_EQ(CanonicalCode(t, copy), x_code);
    }
    for (NodeId n : base.PreOrder()) {
      ASSERT_TRUE(t.alive(n));
      EXPECT_EQ(t.label(n), base.label(n));
      EXPECT_EQ(t.parent(n), base.parent(n));
    }
    EXPECT_TRUE(t.Validate().ok());

    Tree again = CopyTree(base);
    const UpdateOp::Applied replay = op.ApplyInPlace(&again);
    EXPECT_EQ(replay.points, applied.points);
    EXPECT_EQ(replay.copy_roots, applied.copy_roots);
  }
}

TEST_F(ApplyDefinitionTest, DeleteKeepsExactlyTheNodesWithNoSelectedAncestor) {
  const std::vector<Label> alphabet =
      RandomTreeGenerator::MakeAlphabet(symbols_.get(), 3);
  const RandomTreeGenerator trees(symbols_, TreeOptions(alphabet, 12));
  PatternGenOptions pattern_options = PatternOptions(alphabet);
  pattern_options.wildcard_prob = 0.3;
  pattern_options.descendant_prob = 0.4;
  const RandomPatternGenerator patterns(symbols_, pattern_options);

  Rng rng(7002);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const Tree base = CopyTree(trees.Generate(&rng));
    Result<UpdateOp> op =
        UpdateOp::MakeDelete(patterns.GenerateBranchingNonRootOutput(&rng));
    ASSERT_TRUE(op.ok()) << op.status();
    const std::vector<NodeId> selected = Evaluate(op->pattern(), base);
    const std::set<NodeId> is_selected(selected.begin(), selected.end());

    Tree t = CopyTree(base);
    const UpdateOp::Applied applied = op->ApplyInPlace(&t);
    EXPECT_TRUE(applied.copy_roots.empty());

    // A node survives iff no ancestor-or-self is selected; the removed
    // points are the selected nodes with no selected proper ancestor.
    std::vector<NodeId> outermost;
    size_t survivors = 0;
    for (NodeId n : base.PreOrder()) {
      bool selected_above = false;
      for (NodeId a = base.parent(n); a != kNullNode; a = base.parent(a)) {
        selected_above |= is_selected.count(a) > 0;
      }
      const bool doomed = selected_above || is_selected.count(n) > 0;
      EXPECT_EQ(t.alive(n), !doomed) << "node " << n;
      if (!doomed) {
        ++survivors;
        EXPECT_EQ(t.label(n), base.label(n));
        EXPECT_EQ(t.parent(n), base.parent(n));
      }
      if (is_selected.count(n) > 0 && !selected_above) outermost.push_back(n);
    }
    std::sort(outermost.begin(), outermost.end());
    EXPECT_EQ(applied.points, outermost);
    EXPECT_EQ(t.size(), survivors);
    EXPECT_TRUE(t.Validate().ok());

    Tree again = CopyTree(base);
    EXPECT_EQ(op->ApplyInPlace(&again).points, applied.points);
  }
}

}  // namespace
}  // namespace xmlup
