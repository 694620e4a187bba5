#include "eval/evaluator.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "eval/embedding_enumerator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class EvaluatorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(EvaluatorTest, RootOnlyPattern) {
  Tree t = Xml("<a><b/></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a", symbols_), t), std::vector<NodeId>{t.root()});
  EXPECT_TRUE(Evaluate(Xp("x", symbols_), t).empty());
  EXPECT_EQ(Evaluate(Xp("*", symbols_), t), std::vector<NodeId>{t.root()});
}

TEST_F(EvaluatorTest, ChildAxis) {
  Tree t = Xml("<a><b/><b><b/></b><c/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a/b", symbols_), t);
  EXPECT_EQ(result.size(), 2u);  // only direct b children
}

TEST_F(EvaluatorTest, DescendantAxis) {
  Tree t = Xml("<a><b/><b><b/></b><c><b/></c></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a//b", symbols_), t).size(), 4u);
}

TEST_F(EvaluatorTest, DescendantIsProper) {
  // a//a must not select the root itself (DESC is proper descendants).
  Tree t = Xml("<a><a/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a//a", symbols_), t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_NE(result[0], t.root());
}

TEST_F(EvaluatorTest, WildcardMatchesAnyLabel) {
  Tree t = Xml("<a><b/><c/></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a/*", symbols_), t).size(), 2u);
  EXPECT_EQ(Evaluate(Xp("*//*", symbols_), t).size(), 2u);
}

TEST_F(EvaluatorTest, PredicateFiltersResults) {
  Tree t = Xml("<r><book><quantity/></book><book/></r>", symbols_);
  EXPECT_EQ(Evaluate(Xp("r/book", symbols_), t).size(), 2u);
  EXPECT_EQ(Evaluate(Xp("r/book[quantity]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, DescendantPredicate) {
  Tree t = Xml("<r><b><s><q/></s></b><b><s/></b></r>", symbols_);
  EXPECT_EQ(Evaluate(Xp("r/b[.//q]", symbols_), t).size(), 1u);
  EXPECT_EQ(Evaluate(Xp("r/b[q]", symbols_), t).size(), 0u);  // q not a child
}

TEST_F(EvaluatorTest, OutputCanBeInternalNode) {
  // Output in the middle of the trunk: a/b[c] selects b nodes having c.
  Tree t = Xml("<a><b><c/></b><b/></a>", symbols_);
  const std::vector<NodeId> result = Evaluate(Xp("a/b[c]", symbols_), t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(t.LabelName(result[0]), "b");
}

TEST_F(EvaluatorTest, MultiplePredicatesConjoin) {
  Tree t = Xml("<a><b><c/><d/></b><b><c/></b></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a/b[c][d]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, Figure1Scenario) {
  // The paper's Figure 1/§1: books whose quantity is low.
  Tree t = Xml(
      "<catalog>"
      "<book><title/><stock><quantity><low/></quantity></stock></book>"
      "<book><title/><stock><quantity><high/></quantity></stock></book>"
      "</catalog>",
      symbols_);
  const std::vector<NodeId> low_books =
      Evaluate(Xp("catalog/book[.//low]", symbols_), t);
  ASSERT_EQ(low_books.size(), 1u);
  EXPECT_EQ(t.LabelName(low_books[0]), "book");
}

TEST_F(EvaluatorTest, EmbeddingsNeedNotBeInjective) {
  // Two predicate branches may map onto the same tree path.
  Tree t = Xml("<a><b><c/></b></a>", symbols_);
  EXPECT_EQ(Evaluate(Xp("a[b][b/c]", symbols_), t).size(), 1u);
}

TEST_F(EvaluatorTest, EvaluationAfterMutationSeesCurrentTree) {
  Tree t = Xml("<a><b/></a>", symbols_);
  Pattern p = Xp("a//c", symbols_);
  EXPECT_TRUE(Evaluate(p, t).empty());
  const NodeId b = t.first_child(t.root());
  t.AddChild(b, symbols_->Intern("c"));
  EXPECT_EQ(Evaluate(p, t).size(), 1u);
  t.DeleteSubtree(b);
  EXPECT_TRUE(Evaluate(p, t).empty());
}

TEST_F(EvaluatorTest, EmbedsAtAnchorsAtGivenNode) {
  Tree t = Xml("<r><x><a><b/></a></x></r>", symbols_);
  Pattern p = Xp("a/b", symbols_);
  EXPECT_FALSE(HasEmbedding(p, t));  // root is r, not a
  const NodeId x = t.first_child(t.root());
  const NodeId a = t.first_child(x);
  EXPECT_TRUE(EmbedsAt(p, t, a));
  EXPECT_FALSE(EmbedsAt(p, t, x));
  EXPECT_TRUE(EmbedsAnywhereIn(p, t, t.root()));
  EXPECT_TRUE(EmbedsAnywhereIn(p, t, x));
  const NodeId b = t.first_child(a);
  EXPECT_FALSE(EmbedsAnywhereIn(p, t, b));
}

TEST_F(EvaluatorTest, CountEmbeddingsHandCases) {
  Tree t = Xml("<a><b/><b/></a>", symbols_);
  EXPECT_EQ(CountEmbeddings(Xp("a", symbols_), t), 1u);
  EXPECT_EQ(CountEmbeddings(Xp("a/b", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a[b]", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a[b][b]", symbols_), t), 4u);
  EXPECT_EQ(CountEmbeddings(Xp("a/c", symbols_), t), 0u);
}

TEST_F(EvaluatorTest, CountEmbeddingsDescendant) {
  Tree t = Xml("<a><b><b/></b></a>", symbols_);
  EXPECT_EQ(CountEmbeddings(Xp("a//b", symbols_), t), 2u);
  EXPECT_EQ(CountEmbeddings(Xp("a//b//b", symbols_), t), 1u);
  EXPECT_EQ(CountEmbeddings(Xp("a//*", symbols_), t), 2u);
}

TEST_F(EvaluatorTest, CountEmbeddingsLargeWithoutOverflowIssues) {
  // A bushy tree where a[*][*][*] has fanout^3 embeddings.
  Tree t(symbols_);
  const NodeId root = t.CreateRoot(symbols_->Intern("a"));
  for (int i = 0; i < 100; ++i) t.AddChild(root, symbols_->Intern("b"));
  EXPECT_EQ(CountEmbeddings(Xp("a[*][*][*]", symbols_), t), 1000000u);
}

/// A chain of `size` nodes labeled `label` joined by `axis` edges; the
/// output is the last node.
Pattern ChainPattern(const std::shared_ptr<SymbolTable>& symbols,
                     const char* label, Axis axis, size_t size) {
  Pattern p(symbols);
  PatternNodeId node = p.CreateRoot(symbols->Intern(label));
  for (size_t i = 1; i < size; ++i) {
    node = p.AddChild(node, symbols->Intern(label), axis);
  }
  p.SetOutput(node);
  return p;
}

/// A path of `size` nodes labeled `label`; node ids equal depths.
Tree ChainTree(const std::shared_ptr<SymbolTable>& symbols, const char* label,
               size_t size) {
  Tree t(symbols);
  NodeId node = t.CreateRoot(symbols->Intern(label));
  for (size_t i = 1; i < size; ++i) {
    node = t.AddChild(node, symbols->Intern(label));
  }
  return t;
}

TEST_F(EvaluatorTest, PatternsLongerThanOneWord) {
  for (size_t k : {65, 100, 130}) {
    const Pattern child = ChainPattern(symbols_, "a", Axis::kChild, k);
    const Pattern desc = ChainPattern(symbols_, "a", Axis::kDescendant, k);
    const Tree shorter = ChainTree(symbols_, "a", k - 1);
    const Tree longer = ChainTree(symbols_, "a", k + 1);
    const NodeId depth = static_cast<NodeId>(k - 1);  // O(p)'s lowest image
    EXPECT_TRUE(Evaluate(child, shorter).empty()) << k;
    EXPECT_TRUE(Evaluate(desc, shorter).empty()) << k;
    EXPECT_FALSE(HasEmbedding(desc, shorter)) << k;
    EXPECT_EQ(Evaluate(child, longer), std::vector<NodeId>{depth}) << k;
    EXPECT_EQ(Evaluate(desc, longer), (std::vector<NodeId>{depth, depth + 1}))
        << k;
    EXPECT_TRUE(HasEmbedding(child, longer)) << k;
    // Below node 1 the path has k nodes left, below node 2 only k - 1.
    EXPECT_TRUE(EmbedsAt(child, longer, 1)) << k;
    EXPECT_FALSE(EmbedsAt(child, longer, 2)) << k;
    EXPECT_TRUE(EmbedsAnywhereIn(desc, longer, 1)) << k;
    EXPECT_FALSE(EmbedsAnywhereIn(desc, longer, 2)) << k;
  }
  // a[b]...[b] with 100 predicates, then one more [c] in the second word.
  Pattern star(symbols_);
  star.CreateRoot(symbols_->Intern("a"));
  for (int i = 0; i < 100; ++i) {
    star.AddChild(star.root(), symbols_->Intern("b"), Axis::kChild);
  }
  EXPECT_EQ(Evaluate(star, Xml("<a><b/></a>", symbols_)),
            std::vector<NodeId>{0});
  EXPECT_TRUE(Evaluate(star, Xml("<a><c><b/></c></a>", symbols_)).empty());
  star.AddChild(star.root(), symbols_->Intern("c"), Axis::kDescendant);
  ASSERT_EQ(star.size(), 102u);
  EXPECT_TRUE(Evaluate(star, Xml("<a><b/></a>", symbols_)).empty());
  const Tree both = Xml("<a><b/><x><c/></x></a>", symbols_);
  EXPECT_EQ(Evaluate(star, both), std::vector<NodeId>{0});
  EXPECT_TRUE(EmbedsAnywhereIn(star, both, both.root()));
  EXPECT_FALSE(EmbedsAt(star, both, both.first_child(both.root())));
}

TEST_F(EvaluatorTest, HundredThousandNodeChainAndStar) {
  const size_t n = 100000;
  const Tree chain = ChainTree(symbols_, "a", n);
  EXPECT_EQ(Evaluate(Xp("a//a", symbols_), chain).size(), n - 1);
  const Pattern three = Xp("a/a/a", symbols_);
  EXPECT_EQ(Evaluate(three, chain), std::vector<NodeId>{2});
  EXPECT_TRUE(HasEmbedding(three, chain));
  EXPECT_TRUE(EmbedsAt(three, chain, n - 3));
  EXPECT_FALSE(EmbedsAt(three, chain, n - 2));
  EXPECT_TRUE(EmbedsAnywhereIn(three, chain, n - 3));
  EXPECT_FALSE(EmbedsAnywhereIn(three, chain, n - 2));

  Tree star(symbols_);
  const NodeId root = star.CreateRoot(symbols_->Intern("r"));
  NodeId last = kNullNode;
  for (size_t i = 0; i < n; ++i) {
    last = star.AddChild(root, symbols_->Intern("b"));
  }
  star.AddChild(last, symbols_->Intern("c"));
  const NodeId first = star.first_child(root);
  EXPECT_EQ(Evaluate(Xp("r/b", symbols_), star).size(), n);
  EXPECT_EQ(Evaluate(Xp("r/b[c]", symbols_), star), std::vector<NodeId>{last});
  EXPECT_TRUE(HasEmbedding(Xp("r[b/c]", symbols_), star));
  EXPECT_FALSE(HasEmbedding(Xp("r/c", symbols_), star));
  const Pattern bc = Xp("b/c", symbols_);
  EXPECT_TRUE(EmbedsAt(bc, star, last));
  EXPECT_FALSE(EmbedsAt(bc, star, first));
  EXPECT_TRUE(EmbedsAnywhereIn(bc, star, root));
  EXPECT_FALSE(EmbedsAnywhereIn(bc, star, first));
}

/// Checks all four entry points and the counting DP against explicit
/// embedding enumeration, the definition: [[p]](t) is the set of images of
/// O(p), and the anchored forms enumerate on a copy of each node's subtree.
void ExpectMatchesEnumeration(const Pattern& p, const Tree& t,
                              const std::string& where) {
  bool truncated = false;
  const std::vector<Embedding> embeddings =
      EnumerateEmbeddings(p, t, 200000, &truncated);
  ASSERT_FALSE(truncated) << where;
  std::set<NodeId> selected;
  for (const Embedding& e : embeddings) {
    EXPECT_TRUE(IsValidEmbedding(p, t, e)) << where;
    selected.insert(e[p.output()]);
  }
  // Sorted and duplicate-free.
  EXPECT_EQ(Evaluate(p, t),
            std::vector<NodeId>(selected.begin(), selected.end()))
      << where;
  EXPECT_EQ(HasEmbedding(p, t), !embeddings.empty()) << where;
  EXPECT_EQ(CountEmbeddings(p, t), embeddings.size()) << where;
  std::map<NodeId, bool> anchored;
  for (NodeId n : t.PreOrder()) {
    anchored[n] = !EnumerateEmbeddings(p, CopySubtree(t, n), 1).empty();
  }
  for (NodeId n : t.PreOrder()) {
    bool anywhere = false;
    for (NodeId m : t.SubtreeNodes(n)) anywhere = anywhere || anchored[m];
    EXPECT_EQ(EmbedsAt(p, t, n), anchored[n]) << where << " node " << n;
    EXPECT_EQ(EmbedsAnywhereIn(p, t, n), anywhere) << where << " node " << n;
  }
}

/// Property sweep: the evaluator agrees with explicit embedding enumeration
/// on random (tree, pattern) pairs. Every other tree is first mutated by
/// random deletes and grafts, so the walk meets tombstoned slots and
/// grafted subtrees out of id order.
class EvaluatorPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  EvaluatorPropertyTest() {
    tree_options_.target_size = 18;
    tree_options_.alphabet =
        RandomTreeGenerator::MakeAlphabet(symbols_.get(), 3);
  }

  /// A random tree of about 18 nodes over three labels; with `mutate`,
  /// then four random deletes and grafts of about 4 nodes.
  Tree SweepTree(Rng& rng, bool mutate) const {
    Tree t = RandomTreeGenerator(symbols_, tree_options_).Generate(&rng);
    if (!mutate) return t;
    TreeGenOptions graft_options = tree_options_;
    graft_options.target_size = 4;
    const RandomTreeGenerator grafts(symbols_, graft_options);
    for (int step = 0; step < 4; ++step) {
      const std::vector<NodeId> live = t.PreOrder();
      const NodeId n = live[rng.NextBounded(live.size())];
      if (n != t.root() && rng.NextBool(0.5)) {
        t.DeleteSubtree(n);
      } else {
        const Tree source = grafts.Generate(&rng);
        t.GraftCopy(n, source, source.root());
      }
    }
    return t;
  }

  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  TreeGenOptions tree_options_;
};

TEST_P(EvaluatorPropertyTest, MatchesEmbeddingEnumeration) {
  Rng rng(1000 + GetParam());
  PatternGenOptions pat_options;
  pat_options.size = 4;
  pat_options.alphabet = tree_options_.alphabet;
  RandomPatternGenerator patterns(symbols_, pat_options);

  for (int iter = 0; iter < 20; ++iter) {
    Tree t = SweepTree(rng, iter % 2 == 1);
    const Pattern p = rng.NextBool(0.5) ? patterns.GenerateLinear(&rng)
                                        : patterns.GenerateBranching(&rng);
    ExpectMatchesEnumeration(
        p, t,
        "seed=" + std::to_string(GetParam()) + " iter=" + std::to_string(iter));
  }
}

/// Linear patterns of 1-8 nodes, rich in // and *, so the one-word walk
/// meets open descendant steps at every depth, on the same random and
/// grafted trees.
TEST_P(EvaluatorPropertyTest, LinearPatternsMatchEmbeddingEnumeration) {
  Rng rng(2000 + GetParam());
  size_t selecting = 0;
  for (size_t size = 1; size <= 8; ++size) {
    PatternGenOptions pat_options;
    pat_options.size = size;
    pat_options.wildcard_prob = 0.3;
    pat_options.descendant_prob = 0.5;
    pat_options.alphabet = tree_options_.alphabet;
    const RandomPatternGenerator patterns(symbols_, pat_options);
    for (int iter = 0; iter < 4; ++iter) {
      const Pattern p = patterns.GenerateLinear(&rng);
      ASSERT_TRUE(p.IsLinear());
      const Tree t = SweepTree(rng, iter % 2 == 1);
      ExpectMatchesEnumeration(p, t,
                               "seed=" + std::to_string(GetParam()) +
                                   " size=" + std::to_string(size) +
                                   " iter=" + std::to_string(iter));
      selecting += !Evaluate(p, t).empty();
    }
  }
  // Not vacuous: 3-12 of each seed's 32 patterns select something.
  EXPECT_GT(selecting, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EvaluatorPropertyTest,
                         ::testing::Range(0, 12));

TEST_F(EvaluatorTest, DescendantChainsCarryReachPastForeignLabels) {
  // Paths of a with x between: a // step must carry an open chain node
  // down past nodes where nothing opens, and a / step must not. The side
  // leaves give the walk children to skip.
  const Label a = symbols_->Intern("a");
  const Label x = symbols_->Intern("x");
  Rng rng(31);
  const char* const xpaths[] = {"a//a",     "a//a//a", "a//a/a",
                                "a/x//a",   "a/*//a",  "a//x//a//a",
                                "*//a/x//a", "a//a//a//a//a"};
  for (int round = 0; round < 6; ++round) {
    Tree t(symbols_);
    NodeId node = t.CreateRoot(a);
    for (int depth = 1; depth < 36; ++depth) {
      if (rng.NextBool(0.3)) t.AddChild(node, rng.NextBool(0.5) ? a : x);
      node = t.AddChild(node, rng.NextBool(0.5) ? a : x);
    }
    for (const char* xpath : xpaths) {
      ExpectMatchesEnumeration(Xp(xpath, symbols_), t,
                               "round " + std::to_string(round) + " " + xpath);
    }
  }
  // The same at depth 30 000, against the selection worked out by hand:
  // the path is a x x a x x ..., so a//a//a selects every a from the third
  // on, and a/x//a (x right below an a, then an a further down) every a
  // from the second on.
  Tree deep(symbols_);
  NodeId last = deep.CreateRoot(a);
  std::vector<NodeId> as = {last};
  for (int depth = 1; depth < 30000; ++depth) {
    last = deep.AddChild(last, depth % 3 == 0 ? a : x);
    if (depth % 3 == 0) as.push_back(last);
  }
  EXPECT_EQ(Evaluate(Xp("a//a//a", symbols_), deep),
            std::vector<NodeId>(as.begin() + 2, as.end()));
  EXPECT_EQ(Evaluate(Xp("a/x//a", symbols_), deep),
            std::vector<NodeId>(as.begin() + 1, as.end()));
  EXPECT_TRUE(Evaluate(Xp("a/a", symbols_), deep).empty());
}

TEST_F(EvaluatorTest, ChainsOnEitherSideOfOneWord) {
  // 63-, 64- and 65-node chains: the last two lie on either side of the
  // one-word walk's limit, with wildcards and // steps spread along them,
  // on paths long enough for a few images and with an x the wildcards
  // or the // steps must absorb.
  const Label a = symbols_->Intern("a");
  const Label x = symbols_->Intern("x");
  for (size_t k : {63, 64, 65}) {
    Pattern p(symbols_);
    PatternNodeId q = p.CreateRoot(a);
    for (size_t i = 1; i < k; ++i) {
      q = p.AddChild(q, i % 5 == 3 ? kWildcardLabel : a,
                     i % 9 == 0 ? Axis::kDescendant : Axis::kChild);
    }
    p.SetOutput(q);
    for (size_t foreign : {size_t{0}, size_t{8}, size_t{13}}) {
      Tree t(symbols_);
      NodeId node = t.CreateRoot(a);
      for (size_t depth = 1; depth < k + 3; ++depth) {
        node = t.AddChild(node, depth == foreign ? x : a);
        if (depth % 11 == 0) t.AddChild(node, x);
      }
      const std::string where =
          "k=" + std::to_string(k) + " x at " + std::to_string(foreign);
      ExpectMatchesEnumeration(p, t, where);
      EXPECT_FALSE(Evaluate(p, t).empty()) << where;
    }
  }
}

/// A document shaped like the merge_edits seeds: <r> with eight anchors
/// s0..s7, each holding 60 a groups of 1-3 b, 30 c groups of 0-2 d and 10
/// e/f pairs, about 2 200 nodes. Then `edits` random edits: grafts of
/// small anchor-shaped pieces under early nodes, whose fresh ids follow
/// the whole seed, so subtrees interleave in id order, and deletes below
/// the anchors. The grafted copies' roots go to `grafted`.
Tree MergeShapedDocument(const std::shared_ptr<SymbolTable>& symbols,
                         Rng& rng, int edits, std::vector<NodeId>* grafted) {
  Tree t(symbols);
  const auto label = [&](const std::string& name) {
    return symbols->Intern(name);
  };
  const NodeId root = t.CreateRoot(label("r"));
  for (int k = 0; k < 8; ++k) {
    const NodeId s = t.AddChild(root, label("s" + std::to_string(k)));
    for (int i = 0; i < 60; ++i) {
      const NodeId a = t.AddChild(s, label("a"));
      for (uint64_t j = 0, m = 1 + rng.NextBounded(3); j < m; ++j) {
        t.AddChild(a, label("b"));
      }
    }
    for (int i = 0; i < 30; ++i) {
      const NodeId c = t.AddChild(s, label("c"));
      for (uint64_t j = 0, m = rng.NextBounded(3); j < m; ++j) {
        t.AddChild(c, label("d"));
      }
    }
    for (int i = 0; i < 10; ++i) {
      t.AddChild(t.AddChild(s, label("e")), label("f"));
    }
  }
  const Tree pieces[] = {
      Xml("<s3><a><b/><b/></a><c><d/></c><e><f/></e></s3>", symbols),
      Xml("<a><b/></a>", symbols),
      Xml("<c><d/><d/></c>", symbols),
      Xml("<a><c><d/></c><b/></a>", symbols),
  };
  const NodeId early = static_cast<NodeId>(t.capacity() / 8);
  for (int edit = 0; edit < edits; ++edit) {
    if (rng.NextBool(0.7)) {
      NodeId parent = static_cast<NodeId>(rng.NextBounded(early));
      while (!t.alive(parent)) --parent;  // the root, id 0, stays alive
      const Tree& piece = pieces[rng.NextBounded(std::size(pieces))];
      grafted->push_back(t.GraftCopy(parent, piece, piece.root()));
    } else {
      const NodeId n = static_cast<NodeId>(rng.NextBounded(t.capacity()));
      if (t.alive(n) && n != root && t.parent(n) != root) t.DeleteSubtree(n);
    }
  }
  return t;
}

TEST_F(EvaluatorTest, MergeShapedDocumentsAfterGraftsAndDeletes) {
  // Rooted at the document root: anchored child paths, a first step on
  // the descendant axis, descendant steps further down, wildcard roots,
  // output = root, and predicates below the anchor.
  const char* const rooted[] = {
      "r/s3/a/b",        "r/s5/c/d",       "r/s3/a",      "r//a/b",
      "r/s3//d",         "r/*/a[.//d]/b",  "*/s3/a/b",    "*//d",
      "r",               "r[s3/a/b]",      "r[s1/e/f][.//d]",
      "r/s3/a[b]",       "r/s3[e/f]/c[d]", "r/*/a[b][c]",
  };
  // Rooted at inner labels, for EmbedsAt and EmbedsAnywhereIn at every
  // node, grafted copy roots included.
  const char* const inner[] = {"s3/a/b", "a/b", "a[b][c/d]", "c/d",
                               "a//d", "*/b"};
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(500 + seed);
    std::vector<NodeId> grafted;
    const Tree t = MergeShapedDocument(symbols_, rng, 60, &grafted);
    ASSERT_TRUE(t.Validate().ok());
    ASSERT_GE(t.size(), 2000u);
    // The grafts interleave subtrees in id order.
    const std::vector<NodeId> preorder = t.PreOrder();
    ASSERT_FALSE(std::is_sorted(preorder.begin(), preorder.end()));
    const std::string where = "seed " + std::to_string(seed) + " ";
    for (const char* xpath : rooted) {
      ExpectMatchesEnumeration(Xp(xpath, symbols_), t, where + xpath);
    }
    for (const char* xpath : inner) {
      ExpectMatchesEnumeration(Xp(xpath, symbols_), t, where + xpath);
    }
    EXPECT_FALSE(Evaluate(Xp("r/s3/a/b", symbols_), t).empty()) << where;
    // At the grafted roots, named: the copies hold embeddings of their own.
    size_t anchored = 0;
    for (NodeId g : grafted) {
      if (!t.alive(g)) continue;
      for (const char* xpath : inner) {
        const Pattern p = Xp(xpath, symbols_);
        const bool at = !EnumerateEmbeddings(p, CopySubtree(t, g), 1).empty();
        bool anywhere = false;
        for (NodeId m : t.SubtreeNodes(g)) {
          anywhere = anywhere ||
                     !EnumerateEmbeddings(p, CopySubtree(t, m), 1).empty();
        }
        EXPECT_EQ(EmbedsAt(p, t, g), at) << where << xpath << " at " << g;
        EXPECT_EQ(EmbedsAnywhereIn(p, t, g), anywhere)
            << where << xpath << " in " << g;
        anchored += at;
      }
    }
    EXPECT_GT(anchored, 0u) << where;
  }
}

TEST_F(EvaluatorTest, EightThreadsEvaluateOneSharedTree) {
  Rng rng(77);
  std::vector<NodeId> grafted;
  const Tree t = MergeShapedDocument(symbols_, rng, 40, &grafted);
  const Tree small = Xml("<r><s3><a><b/></a></s3><s1/></r>", symbols_);
  // Regions of very different sizes, so each thread's scratch grows and
  // is reused at other sizes.
  const char* const xpaths[] = {"r/s3/a/b", "r//b", "*//c[d]", "r[s3/a/b]",
                                "r/s1/e/f", "r/*/a[b][c]"};
  std::vector<Pattern> patterns;
  std::vector<std::vector<NodeId>> expected;
  std::vector<std::vector<NodeId>> expected_small;
  for (const char* xpath : xpaths) {
    patterns.push_back(Xp(xpath, symbols_));
    expected.push_back(Evaluate(patterns.back(), t));
    expected_small.push_back(Evaluate(patterns.back(), small));
  }
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (int round = 0; round < 20; ++round) {
        for (size_t k = 0; k < patterns.size(); ++k) {
          const size_t i = (k + id) % patterns.size();
          mismatches[id] += Evaluate(patterns[i], t) != expected[i];
          mismatches[id] += Evaluate(patterns[i], small) != expected_small[i];
          mismatches[id] +=
              HasEmbedding(patterns[i], t) != !expected[i].empty();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int id = 0; id < kThreads; ++id) {
    EXPECT_EQ(mismatches[id], 0) << "thread " << id;
  }
  EXPECT_FALSE(expected[0].empty());
}

}  // namespace
}  // namespace xmlup
