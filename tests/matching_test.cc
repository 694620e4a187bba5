#include "match/matching.h"

#include <vector>

#include "common/random.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "match/dp_matcher.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class MatchingTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

/// Checks the Definition 7 conditions on a concrete path tree: the deepest
/// node is selected by l1, and (strong) the deepest node is also selected
/// by l2 / (weak) l2 selects some node of the path.
void ExpectWitnessValid(const ClassWord& word, const Pattern& l1,
                        const Pattern& l2, bool weak,
                        const std::shared_ptr<SymbolTable>& symbols) {
  ASSERT_FALSE(word.empty());
  Tree path = WordToPathTree(word, symbols, symbols->Fresh("fill"));
  NodeId deepest = path.root();
  while (path.first_child(deepest) != kNullNode) {
    deepest = path.first_child(deepest);
  }
  const std::vector<NodeId> r1 = Evaluate(l1, path);
  const std::vector<NodeId> r2 = Evaluate(l2, path);
  EXPECT_TRUE(std::binary_search(r1.begin(), r1.end(), deepest))
      << "l1 must select the deepest node of its witness path";
  if (weak) {
    EXPECT_FALSE(r2.empty()) << "l2 must select some node on the path";
  } else {
    EXPECT_TRUE(std::binary_search(r2.begin(), r2.end(), deepest))
        << "strong match: l2 must select the same (deepest) node";
  }
}

TEST_F(MatchingTest, IdenticalPatternsMatchStrongly) {
  Pattern l = Xp("a/b//c", symbols_);
  const MatchResult m = MatchStrongly(l, l);
  EXPECT_TRUE(m.matches);
  ExpectWitnessValid(m.witness_word, l, l, false, symbols_);
}

TEST_F(MatchingTest, DifferentLeavesDontMatchStrongly) {
  EXPECT_FALSE(
      MatchStrongly(Xp("a/b", symbols_), Xp("a/c", symbols_)).matches);
}

TEST_F(MatchingTest, WildcardBridgesLabels) {
  EXPECT_TRUE(MatchStrongly(Xp("a/*", symbols_), Xp("a/c", symbols_)).matches);
  EXPECT_TRUE(MatchStrongly(Xp("*/*", symbols_), Xp("a/c", symbols_)).matches);
}

TEST_F(MatchingTest, DescendantAbsorbsIntermediateNodes) {
  // a//c vs a/b/c: the word a.b.c satisfies both.
  const MatchResult m =
      MatchStrongly(Xp("a//c", symbols_), Xp("a/b/c", symbols_));
  EXPECT_TRUE(m.matches);
  EXPECT_EQ(m.witness_word.size(), 3u);
}

TEST_F(MatchingTest, ChildEdgeLengthsMustAgree) {
  // a/c (length 2) vs a/b/c (length 3): no common path.
  EXPECT_FALSE(
      MatchStrongly(Xp("a/c", symbols_), Xp("a/b/c", symbols_)).matches);
}

TEST_F(MatchingTest, RootLabelsMustAgree) {
  EXPECT_FALSE(MatchStrongly(Xp("a//x", symbols_), Xp("b//x", symbols_))
                   .matches);
  EXPECT_FALSE(MatchWeakly(Xp("a//x", symbols_), Xp("b", symbols_)).matches);
}

TEST_F(MatchingTest, WeakMatchAllowsDeeperOutput) {
  // l1 = a/b/c reaches below l2 = a/b.
  EXPECT_TRUE(MatchWeakly(Xp("a/b/c", symbols_), Xp("a/b", symbols_)).matches);
  // Strong fails: outputs cannot coincide.
  EXPECT_FALSE(
      MatchStrongly(Xp("a/b/c", symbols_), Xp("a/b", symbols_)).matches);
  // Asymmetry: l1's output must be the deeper one.
  EXPECT_FALSE(MatchWeakly(Xp("a/b", symbols_), Xp("a/b/c", symbols_))
                   .matches);
}

TEST_F(MatchingTest, WeakIncludesStrong) {
  Pattern l1 = Xp("a//b", symbols_);
  Pattern l2 = Xp("a/b", symbols_);
  EXPECT_TRUE(MatchStrongly(l1, l2).matches);
  EXPECT_TRUE(MatchWeakly(l1, l2).matches);
}

TEST_F(MatchingTest, SingleNodePatterns) {
  EXPECT_TRUE(MatchStrongly(Xp("a", symbols_), Xp("a", symbols_)).matches);
  EXPECT_TRUE(MatchStrongly(Xp("a", symbols_), Xp("*", symbols_)).matches);
  EXPECT_FALSE(MatchStrongly(Xp("a", symbols_), Xp("b", symbols_)).matches);
  EXPECT_TRUE(MatchWeakly(Xp("a//b", symbols_), Xp("a", symbols_)).matches);
}

TEST_F(MatchingTest, LinearPatternToRegexShape) {
  const Regex r = LinearPatternToRegex(Xp("a//b/c", symbols_));
  EXPECT_EQ(r.ToString(*symbols_), "a.((.))*.b.c");
}

/// The production matcher (the §4.1 REMARK's dynamic program) against the
/// paper's NFA-intersection construction.
TEST_F(MatchingTest, DpMatcherAgreesOnHandCases) {
  struct Case {
    const char* l1;
    const char* l2;
  };
  const Case cases[] = {
      {"a/b", "a/b"},     {"a//b", "a/x/b"}, {"a/*", "a/c"},
      {"a/b/c", "a/b"},   {"a/c", "a/b/c"},  {"*//*", "a/b/c"},
      {"a//b//c", "a/b"}, {"a", "b"},        {"x//y", "x//z"},
  };
  for (const Case& c : cases) {
    Pattern l1 = Xp(c.l1, symbols_);
    Pattern l2 = Xp(c.l2, symbols_);
    EXPECT_EQ(MatchViaNfa(l1, l2, /*weak=*/false).matches,
              MatchStrongly(l1, l2).matches)
        << c.l1 << " strong " << c.l2;
    EXPECT_EQ(MatchViaNfa(l1, l2, /*weak=*/true).matches,
              MatchWeakly(l1, l2).matches)
        << c.l1 << " weak " << c.l2;
  }
}

/// Ground truth by brute force: enumerate all label words up to a length
/// covering the shortest possible witness and check Definition 7 directly
/// on path trees.
bool BruteMatch(const Pattern& l1, const Pattern& l2, bool weak,
                const std::vector<Label>& alphabet,
                const std::shared_ptr<SymbolTable>& symbols) {
  const size_t max_len = l1.size() + l2.size() + 1;
  std::vector<Label> word;
  // Iterative odometer over words of each length.
  for (size_t len = 1; len <= max_len; ++len) {
    std::vector<size_t> idx(len, 0);
    for (;;) {
      word.clear();
      for (size_t i = 0; i < len; ++i) word.push_back(alphabet[idx[i]]);
      Tree path = BuildPathTree(symbols, word);
      NodeId deepest = path.root();
      while (path.first_child(deepest) != kNullNode) {
        deepest = path.first_child(deepest);
      }
      const std::vector<NodeId> r1 = Evaluate(l1, path);
      if (std::binary_search(r1.begin(), r1.end(), deepest)) {
        const std::vector<NodeId> r2 = Evaluate(l2, path);
        const bool ok =
            weak ? !r2.empty()
                 : std::binary_search(r2.begin(), r2.end(), deepest);
        if (ok) return true;
      }
      size_t i = 0;
      while (i < len && idx[i] + 1 == alphabet.size()) idx[i++] = 0;
      if (i == len) break;
      ++idx[i];
    }
  }
  return false;
}

class MatchingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchingPropertyTest, NfaDpAndBruteForceAgree) {
  auto symbols = NewSymbols();
  Rng rng(4000 + GetParam());
  PatternGenOptions options;
  options.size = 3;
  options.alphabet = {symbols->Intern("a"), symbols->Intern("b")};
  RandomPatternGenerator gen(symbols, options);
  // Brute-force alphabet: pattern labels plus one symbol they don't use.
  std::vector<Label> brute_alphabet = options.alphabet;
  brute_alphabet.push_back(symbols->Intern("other"));

  for (int iter = 0; iter < 30; ++iter) {
    const Pattern l1 = gen.GenerateLinear(&rng);
    const Pattern l2 = gen.GenerateLinear(&rng);
    for (bool weak : {false, true}) {
      const MatchResult nfa = MatchViaNfa(l1, l2, weak);
      const MatchResult dp =
          weak ? MatchWeakly(l1, l2) : MatchStrongly(l1, l2);
      const bool brute = BruteMatch(l1, l2, weak, brute_alphabet, symbols);
      EXPECT_EQ(nfa.matches, dp.matches) << "seed=" << GetParam();
      EXPECT_EQ(nfa.matches, brute) << "seed=" << GetParam();
      if (nfa.matches) {
        ExpectWitnessValid(nfa.witness_word, l1, l2, weak, symbols);
        ExpectWitnessValid(dp.witness_word, l1, l2, weak, symbols);
      }
      // The detectors match against prefix views of a compiled chain:
      // each must answer like the reference on the extracted prefix.
      const CompiledPattern c1(l1);
      const CompiledPattern c2(l2);
      for (size_t k = 0; k < c2.chain_length(); ++k) {
        const Pattern prefix =
            ExtractSeq(c2.mainline_pattern(), c2.mainline_pattern().root(),
                       c2.mainline_node(k));
        const MatchResult view = MatchDp(c1.chain(), c2.prefix(k + 1), weak);
        EXPECT_EQ(view.matches, MatchViaNfa(l1, prefix, weak).matches)
            << "seed=" << GetParam() << " prefix " << k;
        if (view.matches) {
          ExpectWitnessValid(view.witness_word, l1, prefix, weak, symbols);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatchingPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace xmlup
