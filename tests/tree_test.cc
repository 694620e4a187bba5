#include "xml/tree.h"

#include <algorithm>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;

class TreeTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  Label L(const char* name) { return symbols_->Intern(name); }
};

TEST_F(TreeTest, SingleNode) {
  Tree t(symbols_);
  EXPECT_FALSE(t.has_root());
  const NodeId root = t.CreateRoot(L("a"));
  EXPECT_TRUE(t.has_root());
  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.LabelName(root), "a");
  EXPECT_EQ(t.parent(root), kNullNode);
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, ChildrenKeepInsertionOrder) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId c1 = t.AddChild(root, L("a"));
  const NodeId c2 = t.AddChild(root, L("b"));
  const NodeId c3 = t.AddChild(root, L("c"));
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{c1, c2, c3}));
  EXPECT_EQ(t.ChildCount(root), 3u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, AncestorAndDepth) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId b = t.AddChild(a, L("b"));
  const NodeId sibling = t.AddChild(root, L("s"));
  EXPECT_TRUE(t.IsProperAncestor(root, b));
  EXPECT_TRUE(t.IsProperAncestor(a, b));
  EXPECT_FALSE(t.IsProperAncestor(b, b));
  EXPECT_FALSE(t.IsProperAncestor(sibling, b));
  EXPECT_FALSE(t.IsProperAncestor(b, a));
  EXPECT_EQ(t.Depth(root), 0u);
  EXPECT_EQ(t.Depth(b), 2u);
}

TEST_F(TreeTest, DeleteSubtreeTombstonesAndUnlinks) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId a1 = t.AddChild(a, L("x"));
  const NodeId b = t.AddChild(root, L("b"));
  EXPECT_EQ(t.size(), 4u);
  t.DeleteSubtree(a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.alive(a));
  EXPECT_FALSE(t.alive(a1));
  EXPECT_TRUE(t.alive(b));
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{b}));
  // Node ids remain addressable after deletion (stable identity).
  EXPECT_EQ(t.LabelName(a), "a");
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, DeleteMiddleSiblingKeepsLinks) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId c1 = t.AddChild(root, L("a"));
  const NodeId c2 = t.AddChild(root, L("b"));
  const NodeId c3 = t.AddChild(root, L("c"));
  t.DeleteSubtree(c2);
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{c1, c3}));
  t.DeleteSubtree(c3);  // delete the tail: last_child must be fixed up
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{c1}));
  const NodeId c4 = t.AddChild(root, L("d"));
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{c1, c4}));
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, GraftCopyIsDeepAndDisjoint) {
  Tree src(symbols_);
  const NodeId sr = src.CreateRoot(L("x"));
  src.AddChild(sr, L("y"));
  src.AddChild(sr, L("z"));

  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId copy1 = t.GraftCopy(root, src, src.root());
  const NodeId copy2 = t.GraftCopy(root, src, src.root());
  EXPECT_EQ(t.size(), 7u);
  EXPECT_NE(copy1, copy2);
  EXPECT_EQ(t.LabelName(copy1), "x");
  EXPECT_EQ(t.ChildCount(copy1), 2u);
  // Source unchanged.
  EXPECT_EQ(src.size(), 3u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, GraftCopyPreservesChildOrder) {
  Tree src(symbols_);
  const NodeId sr = src.CreateRoot(L("x"));
  src.AddChild(sr, L("p"));
  src.AddChild(sr, L("q"));
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId copy = t.GraftCopy(root, src, src.root());
  const std::vector<NodeId> kids = t.Children(copy);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(t.LabelName(kids[0]), "p");
  EXPECT_EQ(t.LabelName(kids[1]), "q");
}

/// The nodes of the subtree at `n` in pre-order, children left to right,
/// walked by the links.
std::vector<NodeId> LeftToRightPreOrder(const Tree& t, NodeId n) {
  std::vector<NodeId> out;
  NodeId at = n;
  while (true) {
    out.push_back(at);
    if (t.first_child(at) != kNullNode) {
      at = t.first_child(at);
      continue;
    }
    while (at != n && t.next_sibling(at) == kNullNode) at = t.parent(at);
    if (at == n) return out;
    at = t.next_sibling(at);
  }
}

TEST_F(TreeTest, GraftCopyOfAHundredThousandDeepChain) {
  const size_t n = 100000;
  Tree src(symbols_);
  NodeId last = src.CreateRoot(L("a"));
  for (size_t depth = 1; depth < n; ++depth) {
    last = src.AddChild(last, L(depth % 3 == 0 ? "a" : "b"));
  }
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId before = t.AddChild(root, L("s"));
  const NodeId copy = t.GraftCopy(root, src, src.root());
  EXPECT_EQ(t.size(), n + 2);
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{before, copy}));
  // Labels down the copy, in order, each id one above its parent's.
  NodeId from = src.root();
  NodeId to = copy;
  size_t depth = 0;
  for (; from != kNullNode && to != kNullNode; ++depth) {
    ASSERT_EQ(t.label(to), src.label(from)) << depth;
    ASSERT_EQ(t.next_sibling(to), kNullNode) << depth;
    if (to != copy) {
      ASSERT_EQ(to, t.parent(to) + 1) << depth;
    }
    from = src.first_child(from);
    to = t.first_child(to);
  }
  EXPECT_EQ(depth, n);
  EXPECT_EQ(from, kNullNode);
  EXPECT_EQ(to, kNullNode);
  EXPECT_EQ(src.size(), n);
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, GraftCopyOfWideNestedContent) {
  // 200 children under the root, with 0-3 children of their own, some of
  // those with a chain of two below.
  Tree src(symbols_);
  const NodeId top = src.CreateRoot(L("x"));
  Rng rng(11);
  const char* const labels[] = {"p", "q", "u", "v"};
  for (int i = 0; i < 200; ++i) {
    const NodeId kid = src.AddChild(top, L(labels[rng.NextBounded(4)]));
    for (uint64_t j = 0, m = rng.NextBounded(4); j < m; ++j) {
      const NodeId grandkid = src.AddChild(kid, L(labels[rng.NextBounded(4)]));
      if (rng.NextBool(0.3)) {
        src.AddChild(src.AddChild(grandkid, L("w")), L("z"));
      }
    }
  }
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId early = t.AddChild(root, L("s"));
  const NodeId copy = t.GraftCopy(early, src, src.root());
  EXPECT_EQ(t.size(), src.size() + 2);
  EXPECT_EQ(CanonicalCode(t, copy), CanonicalCode(src));
  EXPECT_TRUE(OrderedEqual(CopySubtree(t, copy), src));
  // Ids come out in pre-order, consecutive from the copy's root.
  const std::vector<NodeId> order = LeftToRightPreOrder(t, copy);
  ASSERT_EQ(order.size(), src.size());
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], copy + i) << i;
  }
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, DeleteSubtreeOfAHundredThousandDeepChain) {
  const size_t n = 100000;
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId before = t.AddChild(root, L("s"));
  const NodeId top = t.AddChild(root, L("a"));
  const NodeId after = t.AddChild(root, L("s"));
  t.AddChild(after, L("k"));
  NodeId last = top;
  for (size_t depth = 1; depth < n; ++depth) {
    last = t.AddChild(last, L("a"));
    // Siblings along the chain, so the climb passes nodes with none left.
    if (depth % 1000 == 0) t.AddChild(t.parent(last), L("b"));
  }
  const size_t chain = t.size() - 4;
  t.DeleteSubtree(top);
  // Only the root and its other two children, one with a child, remain.
  EXPECT_EQ(t.size(), 4u);
  EXPECT_GT(chain, n);
  EXPECT_FALSE(t.alive(top));
  EXPECT_FALSE(t.alive(last));
  EXPECT_TRUE(t.alive(before));
  EXPECT_TRUE(t.alive(after));
  EXPECT_EQ(t.Children(root), (std::vector<NodeId>{before, after}));
  EXPECT_TRUE(t.Validate().ok());
}

TEST_F(TreeTest, ValidateHoldsAfterRandomGraftsAndDeletes) {
  // Validate includes the id-order invariant the evaluator's sweeps rely
  // on: every child's id is above its parent's, tombstoned gaps and all.
  Tree src(symbols_);
  const NodeId sr = src.CreateRoot(L("x"));
  src.AddChild(src.AddChild(sr, L("y")), L("z"));
  Tree t(symbols_);
  t.CreateRoot(L("r"));
  Rng rng(7);
  for (int step = 0; step < 1000; ++step) {
    const std::vector<NodeId> live = t.PreOrder();
    const NodeId n = live[rng.NextBounded(live.size())];
    if (n != t.root() && rng.NextBool(0.3)) {
      t.DeleteSubtree(n);
    } else if (rng.NextBool(0.5)) {
      t.GraftCopy(n, src, src.root());
    } else {
      t.AddChild(n, L("w"));
    }
    ASSERT_TRUE(t.Validate().ok()) << "step " << step;
  }
  EXPECT_LT(t.size(), t.capacity());  // deletes left gaps
  for (NodeId n : t.PreOrder()) {
    if (n != t.root()) {
      EXPECT_LT(t.parent(n), n);
    }
  }
}

TEST_F(TreeTest, VersionBumpsOnMutation) {
  Tree t(symbols_);
  const uint64_t v0 = t.version();
  const NodeId root = t.CreateRoot(L("r"));
  EXPECT_GT(t.version(), v0);
  const uint64_t v1 = t.version();
  const NodeId c = t.AddChild(root, L("a"));
  EXPECT_GT(t.version(), v1);
  const uint64_t v2 = t.version();
  t.DeleteSubtree(c);
  EXPECT_GT(t.version(), v2);
}

TEST_F(TreeTest, TraversalsCoverLiveNodesOnly) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  t.AddChild(a, L("b"));
  const NodeId c = t.AddChild(root, L("c"));
  t.DeleteSubtree(a);
  const std::vector<NodeId> pre = t.PreOrder();
  EXPECT_EQ(pre, (std::vector<NodeId>{root, c}));
  std::vector<NodeId> post = t.PostOrder();
  EXPECT_EQ(post.back(), root);
  EXPECT_EQ(post.size(), 2u);
}

TEST_F(TreeTest, SubtreeNodes) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId b = t.AddChild(a, L("b"));
  t.AddChild(root, L("c"));
  std::vector<NodeId> sub = t.SubtreeNodes(a);
  std::sort(sub.begin(), sub.end());
  EXPECT_EQ(sub, (std::vector<NodeId>{a, b}));
}

TEST_F(TreeTest, CopyTreeProducesIdenticalIds) {
  // Witness-shrinking relies on deterministic copies: copying the same
  // tree twice yields the same NodeId layout.
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  t.AddChild(a, L("b"));
  t.AddChild(root, L("c"));
  std::unordered_map<NodeId, NodeId> map1;
  std::unordered_map<NodeId, NodeId> map2;
  Tree c1 = CopyTree(t, &map1);
  Tree c2 = CopyTree(t, &map2);
  ASSERT_EQ(map1.size(), map2.size());
  for (const auto& [src, dst] : map1) {
    EXPECT_EQ(map2.at(src), dst);
  }
  EXPECT_TRUE(OrderedEqual(c1, c2));
  EXPECT_TRUE(OrderedEqual(c1, t));
}

TEST_F(TreeTest, SnapshotDetectsInsertionAndDeletion) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId b = t.AddChild(a, L("b"));
  const SubtreeSnapshot snap = SnapshotSubtree(t, a);
  EXPECT_TRUE(SnapshotUnchanged(t, snap));
  t.AddChild(b, L("new"));
  EXPECT_FALSE(SnapshotUnchanged(t, snap));
}

TEST_F(TreeTest, SnapshotDetectsSubtreeDeletion) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId b = t.AddChild(a, L("b"));
  const SubtreeSnapshot snap = SnapshotSubtree(t, a);
  t.DeleteSubtree(b);
  EXPECT_FALSE(SnapshotUnchanged(t, snap));
}

TEST_F(TreeTest, SnapshotUnaffectedByOutsideMutation) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  const NodeId c = t.AddChild(root, L("c"));
  const SubtreeSnapshot snap = SnapshotSubtree(t, a);
  t.AddChild(c, L("x"));
  EXPECT_TRUE(SnapshotUnchanged(t, snap));
}

TEST_F(TreeTest, BuildPathTree) {
  Tree path = BuildPathTree(symbols_, {L("a"), L("b"), L("c")});
  EXPECT_EQ(path.size(), 3u);
  NodeId n = path.root();
  EXPECT_EQ(path.LabelName(n), "a");
  n = path.first_child(n);
  EXPECT_EQ(path.LabelName(n), "b");
  n = path.first_child(n);
  EXPECT_EQ(path.LabelName(n), "c");
  EXPECT_EQ(path.first_child(n), kNullNode);
}

TEST_F(TreeTest, CopySubtree) {
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(L("r"));
  const NodeId a = t.AddChild(root, L("a"));
  t.AddChild(a, L("b"));
  Tree sub = CopySubtree(t, a);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.LabelName(sub.root()), "a");
}

}  // namespace
}  // namespace xmlup
