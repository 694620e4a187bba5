#include "xml/isomorphism.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;

class IsomorphismTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(IsomorphismTest, IgnoresChildOrder) {
  Tree t1 = Xml("<a><b/><c/></a>", symbols_);
  Tree t2 = Xml("<a><c/><b/></a>", symbols_);
  EXPECT_TRUE(Isomorphic(t1, t1.root(), t2, t2.root()));
  EXPECT_EQ(CanonicalCode(t1), CanonicalCode(t2));
}

TEST_F(IsomorphismTest, LabelsMatter) {
  Tree t1 = Xml("<a><b/></a>", symbols_);
  Tree t2 = Xml("<a><c/></a>", symbols_);
  EXPECT_FALSE(Isomorphic(t1, t1.root(), t2, t2.root()));
}

TEST_F(IsomorphismTest, MultiplicityMatters) {
  Tree t1 = Xml("<a><b/><b/></a>", symbols_);
  Tree t2 = Xml("<a><b/></a>", symbols_);
  EXPECT_FALSE(Isomorphic(t1, t1.root(), t2, t2.root()));
}

TEST_F(IsomorphismTest, DeepPermutation) {
  Tree t1 = Xml("<r><a><x/><y><z/></y></a><b/></r>", symbols_);
  Tree t2 = Xml("<r><b/><a><y><z/></y><x/></a></r>", symbols_);
  EXPECT_TRUE(Isomorphic(t1, t1.root(), t2, t2.root()));
}

TEST_F(IsomorphismTest, SubtreeComparison) {
  Tree t = Xml("<r><a><x/></a><b><x/></b></r>", symbols_);
  const std::vector<NodeId> kids = t.Children(t.root());
  ASSERT_EQ(kids.size(), 2u);
  // <a><x/></a> vs <b><x/></b>: different root labels.
  EXPECT_FALSE(Isomorphic(t, kids[0], t, kids[1]));
  // But their x children are isomorphic.
  EXPECT_TRUE(Isomorphic(t, t.first_child(kids[0]), t,
                         t.first_child(kids[1])));
}

TEST_F(IsomorphismTest, CrossSymbolTableComparison) {
  auto other = NewSymbols();
  other->Intern("decoy1");  // shift label ids
  other->Intern("decoy2");
  Tree t1 = Xml("<a><b/></a>", symbols_);
  Tree t2 = Xml("<a><b/></a>", other);
  EXPECT_TRUE(Isomorphic(t1, t1.root(), t2, t2.root()));
}

TEST_F(IsomorphismTest, SetSemanticsCollapsesDuplicates) {
  // This is the paper's Figure 3 situation: a set containing two
  // isomorphic subtrees is set-isomorphic to a set containing one.
  Tree t1 = Xml("<r><g/><g/></r>", symbols_);
  Tree t2 = Xml("<r><g/></r>", symbols_);
  const std::vector<NodeId> roots1 = t1.Children(t1.root());
  const std::vector<NodeId> roots2 = t2.Children(t2.root());
  EXPECT_TRUE(SetsIsomorphic(t1, roots1, t2, roots2));
  EXPECT_FALSE(MultisetsIsomorphic(t1, roots1, t2, roots2));
}

TEST_F(IsomorphismTest, SetSemanticsBothDirections) {
  Tree t1 = Xml("<r><a/><b/></r>", symbols_);
  Tree t2 = Xml("<r><a/></r>", symbols_);
  EXPECT_FALSE(SetsIsomorphic(t1, t1.Children(t1.root()), t2,
                              t2.Children(t2.root())));
}

TEST_F(IsomorphismTest, EmptySets) {
  Tree t1 = Xml("<r/>", symbols_);
  Tree t2 = Xml("<r/>", symbols_);
  EXPECT_TRUE(SetsIsomorphic(t1, {}, t2, {}));
  EXPECT_FALSE(SetsIsomorphic(t1, {t1.root()}, t2, {}));
}

TEST_F(IsomorphismTest, CanonicalCodeOnDeepChain) {
  // Exercise the iterative code path on a deep chain.
  Tree t(symbols_);
  NodeId n = t.CreateRoot(symbols_->Intern("c"));
  for (int i = 0; i < 500; ++i) n = t.AddChild(n, symbols_->Intern("c"));
  const std::string code = CanonicalCode(t);
  EXPECT_EQ(code.size(), 501u * 3);  // "(c" + ")" per node
}

/// The definition, written plainly: "(" label name, the children's codes
/// sorted, ")".
std::string ReferenceCode(const Tree& t, NodeId n) {
  std::vector<std::string> children;
  for (NodeId c = t.first_child(n); c != kNullNode; c = t.next_sibling(c)) {
    children.push_back(ReferenceCode(t, c));
  }
  std::sort(children.begin(), children.end());
  std::string code = "(" + t.LabelName(n);
  for (const std::string& child : children) code += child;
  return code + ")";
}

/// Labels whose codes share prefixes, so the sort order of sibling codes
/// depends on more than their first bytes.
std::vector<Label> PrefixLabels(const std::shared_ptr<SymbolTable>& symbols) {
  std::vector<Label> labels;
  for (const char* name : {"a", "ab", "a-b", "a.b", "#x", "_", "A"}) {
    labels.push_back(symbols->Intern(name));
  }
  return labels;
}

/// A root-to-leaf spine of `depth` nodes plus `extra` nodes, each under a
/// random earlier node, all with random labels from `labels`.
Tree RandomTree(Rng& rng, const std::shared_ptr<SymbolTable>& symbols,
                const std::vector<Label>& labels, size_t depth,
                size_t extra) {
  auto label = [&] { return labels[rng.NextBounded(labels.size())]; };
  Tree t(symbols);
  std::vector<NodeId> nodes = {t.CreateRoot(label())};
  for (size_t d = 1; d < depth; ++d) {
    nodes.push_back(t.AddChild(nodes.back(), label()));
  }
  for (size_t i = 0; i < extra; ++i) {
    nodes.push_back(t.AddChild(nodes[rng.NextBounded(nodes.size())], label()));
  }
  return t;
}

/// Copies the subtree of `source` at `n` under `parent` of `target` (as
/// its root when `parent` is kNullNode), adding each node's children in a
/// random order, and `relabeled` with label `to`.
void ShuffledCopy(Rng& rng, const Tree& source, NodeId n, Tree* target,
                  NodeId parent, NodeId relabeled, Label to) {
  const Label label = n == relabeled ? to : source.label(n);
  const NodeId copy = parent == kNullNode ? target->CreateRoot(label)
                                          : target->AddChild(parent, label);
  std::vector<NodeId> children = source.Children(n);
  for (size_t i = children.size(); i > 1; --i) {
    std::swap(children[i - 1], children[rng.NextBounded(i)]);
  }
  for (NodeId c : children) {
    ShuffledCopy(rng, source, c, target, copy, relabeled, to);
  }
}

TEST_F(IsomorphismTest, CanonicalCodeMatchesARecursiveReference) {
  Rng rng(27);
  const std::vector<Label> labels = PrefixLabels(symbols_);
  size_t subtrees = 0;
  for (size_t depth : {1, 2, 3, 4, 6, 9, 17, 40, 120, 400}) {
    for (int round = 0; round < 12; ++round) {
      const Tree t =
          RandomTree(rng, symbols_, labels, depth, rng.NextBounded(60));
      EXPECT_EQ(CanonicalCode(t), ReferenceCode(t, t.root()));
      for (NodeId n : t.PreOrder()) {
        ASSERT_EQ(CanonicalCode(t, n), ReferenceCode(t, n))
            << "depth " << depth << ", node " << n;
        ++subtrees;
      }
    }
  }
  EXPECT_GT(subtrees, 10000u);
}

TEST_F(IsomorphismTest, SiblingOrderDoesNotChangeTheCodeButALabelDoes) {
  Rng rng(2706);
  const std::vector<Label> labels = PrefixLabels(symbols_);
  for (int round = 0; round < 200; ++round) {
    const Tree t = RandomTree(rng, symbols_, labels, 1 + rng.NextBounded(8),
                              rng.NextBounded(40));
    Tree shuffled(symbols_);
    ShuffledCopy(rng, t, t.root(), &shuffled, kNullNode, kNullNode, 0);
    EXPECT_EQ(CanonicalCode(shuffled), CanonicalCode(t));
    EXPECT_TRUE(Isomorphic(t, t.root(), shuffled, shuffled.root()));

    const std::vector<NodeId> nodes = t.PreOrder();
    const NodeId relabeled = nodes[rng.NextBounded(nodes.size())];
    size_t to = rng.NextBounded(labels.size());
    if (labels[to] == t.label(relabeled)) to = (to + 1) % labels.size();
    Tree changed(symbols_);
    ShuffledCopy(rng, t, t.root(), &changed, kNullNode, relabeled,
                 labels[to]);
    EXPECT_NE(CanonicalCode(changed), CanonicalCode(t));
    EXPECT_FALSE(Isomorphic(t, t.root(), changed, changed.root()));
  }
}

}  // namespace
}  // namespace xmlup
