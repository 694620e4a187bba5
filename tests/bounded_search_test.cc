#include "conflict/bounded_search.h"

#include <atomic>
#include <set>
#include <thread>

#include "common/random.h"
#include "conflict/commutativity.h"
#include "dtd/dtd.h"
#include "dtd/dtd_conflict.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_writer.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class TreeEnumeratorTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::vector<Label> Alphabet(size_t n) {
    std::vector<Label> a;
    for (size_t i = 0; i < n; ++i) {
      a.push_back(symbols_->Intern(std::string(1, 'a' + i)));
    }
    return a;
  }
};

TEST_F(TreeEnumeratorTest, CountsUnlabeledTrees) {
  // With a single label, tree counts are the numbers of unordered rooted
  // trees: 1, 1, 2, 4, 9, 20, 48 (OEIS A000081 partial sums below).
  const uint64_t expected_cumulative[] = {1, 2, 4, 8, 17, 37, 85};
  for (size_t n = 1; n <= 7; ++n) {
    TreeEnumerator e(symbols_, Alphabet(1), n);
    EXPECT_FALSE(e.truncated());
    EXPECT_EQ(e.count(), expected_cumulative[n - 1]) << "max_nodes=" << n;
  }
}

TEST_F(TreeEnumeratorTest, CountsLabeledTrees) {
  // Two labels: t(1)=2, t(2)=4, t(3)=14 → cumulative 2, 6, 20.
  TreeEnumerator e1(symbols_, Alphabet(2), 1);
  EXPECT_EQ(e1.count(), 2u);
  TreeEnumerator e2(symbols_, Alphabet(2), 2);
  EXPECT_EQ(e2.count(), 6u);
  TreeEnumerator e3(symbols_, Alphabet(2), 3);
  EXPECT_EQ(e3.count(), 20u);
}

TEST_F(TreeEnumeratorTest, NoIsomorphicDuplicates) {
  TreeEnumerator e(symbols_, Alphabet(2), 4);
  std::set<std::string> codes;
  size_t visited = 0;
  e.Enumerate([&](const Tree& t) {
    ++visited;
    EXPECT_TRUE(t.Validate().ok());
    EXPECT_LE(t.size(), 4u);
    const std::string code = CanonicalCode(t);
    EXPECT_TRUE(codes.insert(code).second) << "duplicate: " << code;
    return true;
  });
  EXPECT_EQ(visited, e.count());
}

TEST_F(TreeEnumeratorTest, EarlyStop) {
  TreeEnumerator e(symbols_, Alphabet(2), 4);
  size_t visited = 0;
  const bool completed = e.Enumerate([&](const Tree&) {
    return ++visited < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 5u);
}

TEST_F(TreeEnumeratorTest, CapTruncatesGeneration) {
  TreeEnumerator e(symbols_, Alphabet(2), 6, /*max_shapes=*/10);
  EXPECT_TRUE(e.truncated());
  EXPECT_LE(e.count(), 10u);
}

class BruteForceTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(BruteForceTest, FindsKnownInsertConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 3;
  Tree x = Xml("<C/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//C", symbols_), Xp("x/B", symbols_), x,
      ConflictSemantics::kNode, options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(IsReadInsertWitness(Xp("x//C", symbols_), Xp("x/B", symbols_),
                                  x, *r.witness, ConflictSemantics::kNode));
  EXPECT_GT(r.trees_checked, 0u);
}

TEST_F(BruteForceTest, ExhaustsWithoutWitnessWhenNoConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Tree x = Xml("<C/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//D", symbols_), Xp("x/B", symbols_), x,
      ConflictSemantics::kNode, options);
  EXPECT_EQ(r.outcome, SearchOutcome::kExhaustedNoWitness);
  EXPECT_FALSE(r.witness.has_value());
}

TEST_F(BruteForceTest, FindsKnownDeleteConflict) {
  BoundedSearchOptions options;
  options.max_nodes = 3;
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a//b", symbols_), Xp("a//c", symbols_), ConflictSemantics::kNode,
      options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  EXPECT_TRUE(IsReadDeleteWitness(Xp("a//b", symbols_), Xp("a//c", symbols_),
                                  *r.witness, ConflictSemantics::kNode));
}

TEST_F(BruteForceTest, BudgetExceededIsReported) {
  BoundedSearchOptions options;
  options.max_nodes = 8;
  options.max_trees = 50;  // far too small to exhaust
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a/q", symbols_), Xp("a/z", symbols_), ConflictSemantics::kNode,
      options);
  EXPECT_EQ(r.outcome, SearchOutcome::kBudgetExceeded);
}

TEST_F(BruteForceTest, TruncationSetsFlagAndBudgetExceeded) {
  // Regression (soundness audit): a truncated enumeration must surface as
  // kBudgetExceeded with truncated == true, never as exhaustion.
  BoundedSearchOptions options;
  options.max_nodes = 8;
  options.max_trees = 5;  // forces TreeEnumerator::truncated()
  const BruteForceResult r = BruteForceReadDeleteSearch(
      Xp("a/q", symbols_), Xp("a/z", symbols_), ConflictSemantics::kNode,
      options);
  EXPECT_EQ(r.outcome, SearchOutcome::kBudgetExceeded);
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.witness.has_value());
}

TEST_F(BruteForceTest, CompletedSearchIsNotTruncated) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("x//D", symbols_), Xp("x/B", symbols_), Xml("<C/>", symbols_),
      ConflictSemantics::kNode, options);
  EXPECT_EQ(r.outcome, SearchOutcome::kExhaustedNoWitness);
  EXPECT_FALSE(r.truncated);
}

TEST_F(BruteForceTest, PaperWitnessBound) {
  const Pattern read = Xp("a/*/*/b", symbols_);  // |R|=4, star length 2
  const Pattern ins = Xp("c//d", symbols_);      // |I|=2
  EXPECT_EQ(PaperWitnessBound(read, ins), 4u * 2u * 3u);
}

TEST_F(BruteForceTest, BranchingPatternsSupported) {
  // The NP-side search handles branching reads the PTIME detectors reject.
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Tree x = Xml("<g/>", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      Xp("a[b][g]", symbols_), Xp("a[b]/b", symbols_), x,
      ConflictSemantics::kNode, options);
  // Inserting g under b gives the root both a b child and ... g is at
  // depth 2, not a child of a: no node conflict from this insert.
  // (The point of this test: the search exhausts without crashing.)
  EXPECT_NE(r.outcome, SearchOutcome::kBudgetExceeded);
}

TEST_F(BruteForceTest, BranchingReadConflictFound) {
  // read a[c] (root with c child) vs insert X=<c/> under a: inserting a c
  // child makes the read return the root where it previously did not.
  BoundedSearchOptions options;
  options.max_nodes = 3;
  Tree x = Xml("<c/>", symbols_);
  Pattern read(symbols_);
  const PatternNodeId root = read.CreateRoot(symbols_->Intern("a"));
  read.AddChild(root, symbols_->Intern("c"), Axis::kChild);
  read.SetOutput(root);
  Pattern ins = Xp("a", symbols_);
  const BruteForceResult r = BruteForceReadInsertSearch(
      read, ins, x, ConflictSemantics::kNode, options);
  ASSERT_EQ(r.outcome, SearchOutcome::kWitnessFound);
  EXPECT_TRUE(IsReadInsertWitness(read, ins, x, *r.witness,
                                  ConflictSemantics::kNode));
}

// --- Equivalence with the definition -------------------------------------
//
// The reference is the plain search the shape-level one replaced: walk the
// enumerator, materialize every tree, run the Lemma 1 checker on each. It
// also counts the trees the SAT filter should reject, from the evaluator's
// HasEmbedding. The shape-level search must agree with it on the outcome,
// trees_checked, truncated, the witness and that count.

/// A search's result and the number of shapes its filter rejected.
struct SearchRun {
  BruteForceResult result;
  uint64_t pruned = 0;
};

/// Runs one library search and reads its rejections off the counter.
SearchRun Measure(const std::function<BruteForceResult()>& search) {
  obs::Counter& pruned = obs::MetricsRegistry::Default().GetCounter(
      "bounded_search.shapes_pruned");
  const uint64_t before = pruned.value();
  SearchRun run{search()};
  run.pruned = pruned.value() - before;
  return run;
}

using TreePredicate = std::function<bool(const Tree&)>;

SearchRun ReferenceSearch(const std::shared_ptr<SymbolTable>& symbols,
                    const std::vector<Label>& alphabet,
                    const BoundedSearchOptions& options,
                    const TreePredicate& survives,
                    const TreePredicate& is_witness) {
  TreeEnumerator enumerator(symbols, alphabet, options.max_nodes,
                            options.max_trees);
  SearchRun run;
  BruteForceResult& result = run.result;
  const bool completed = enumerator.Enumerate([&](const Tree& candidate) {
    ++result.trees_checked;
    if (!survives(candidate)) ++run.pruned;
    if (is_witness(candidate)) {
      result.outcome = SearchOutcome::kWitnessFound;
      result.witness = CopyTree(candidate);
      return false;
    }
    return true;
  });
  result.truncated = enumerator.truncated();
  if (result.outcome == SearchOutcome::kWitnessFound) return run;
  result.outcome = (completed && !enumerator.truncated())
                       ? SearchOutcome::kExhaustedNoWitness
                       : SearchOutcome::kBudgetExceeded;
  return run;
}

/// Empty when the two runs agree, else what differs.
std::string Diff(const SearchRun& got, const SearchRun& want) {
  std::string diff;
  if (got.result.outcome != want.result.outcome) diff += " outcome";
  if (got.result.trees_checked != want.result.trees_checked) {
    diff += " trees_checked " + std::to_string(got.result.trees_checked) +
            " vs " + std::to_string(want.result.trees_checked);
  }
  if (got.result.truncated != want.result.truncated) diff += " truncated";
  const std::optional<Tree>& a = got.result.witness;
  const std::optional<Tree>& b = want.result.witness;
  if (a.has_value() != b.has_value()) {
    diff += " witness presence";
  } else if (a.has_value() && CanonicalCode(*a) != CanonicalCode(*b)) {
    diff += " witness " + CanonicalCode(*a) + " vs " + CanonicalCode(*b);
  }
  if (got.pruned != want.pruned) {
    diff += " pruned " + std::to_string(got.pruned) + " vs " +
            std::to_string(want.pruned);
  }
  return diff;
}

std::set<Label> LabelsOf(const Pattern& a, const Pattern& b) {
  std::set<Label> labels;
  for (Label l : a.DistinctLabels()) labels.insert(l);
  for (Label l : b.DistinctLabels()) labels.insert(l);
  return labels;
}

std::set<Label> LabelsOf(const Tree& tree) {
  std::set<Label> labels;
  for (NodeId n : tree.PreOrder()) labels.insert(tree.label(n));
  return labels;
}

class SearchEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr ConflictSemantics kSemantics[] = {
      ConflictSemantics::kNode, ConflictSemantics::kTree,
      ConflictSemantics::kValue};

  void SetUp() override {
    patterns_ = SmallPatterns();
    for (const Pattern& p : patterns_) {
      if (p.output() != p.root()) delete_patterns_.push_back(&p);
    }
    for (const char* xml : {"<a/>", "<b/>", "<a><b/></a>", "<c><a/></c>"}) {
      contents_.push_back(Xml(xml, symbols_));
    }
  }

  /// Every pattern of 1-3 nodes over {a, b, *} with child and descendant
  /// edges and every output node (the two children of a 3-node fork are
  /// taken as an unordered pair).
  std::vector<Pattern> SmallPatterns() {
    const Label labels[] = {symbols_->Intern("a"), symbols_->Intern("b"),
                            kWildcardLabel};
    const Axis axes[] = {Axis::kChild, Axis::kDescendant};
    std::vector<Pattern> out;
    for (Label l0 : labels) {
      Pattern p(symbols_);
      p.CreateRoot(l0);
      out.push_back(p);
      for (Label l1 : labels) {
        for (Axis a1 : axes) {
          Pattern p2(symbols_);
          p2.AddChild(p2.CreateRoot(l0), l1, a1);
          for (PatternNodeId o = 0; o < 2; ++o) {
            p2.SetOutput(o);
            out.push_back(p2);
          }
          for (Label l2 : labels) {
            for (Axis a2 : axes) {
              for (bool fork : {false, true}) {
                if (fork && std::make_pair(l2, a2) < std::make_pair(l1, a1)) {
                  continue;
                }
                Pattern p3(symbols_);
                const PatternNodeId root = p3.CreateRoot(l0);
                const PatternNodeId n1 = p3.AddChild(root, l1, a1);
                p3.AddChild(fork ? root : n1, l2, a2);
                const bool twins = fork && l1 == l2 && a1 == a2;
                for (PatternNodeId o = 0; o < (twins ? 2u : 3u); ++o) {
                  p3.SetOutput(o);
                  out.push_back(p3);
                }
              }
            }
          }
        }
      }
    }
    return out;
  }

  /// Both searches of a read-insert instance; empty when they agree.
  std::string DiffInsert(const Pattern& read, const Pattern& ins,
                         const Tree& x, ConflictSemantics semantics,
                         const BoundedSearchOptions& options,
                         BruteForceResult* got = nullptr) {
    SearchRun run = Measure([&] {
      return BruteForceReadInsertSearch(read, ins, x, semantics, options);
    });
    const SearchRun want = ReferenceSearch(
        symbols_,
        SearchAlphabet(*symbols_, LabelsOf(read, ins), LabelsOf(x),
                       options.extra_labels),
        options, [&](const Tree& t) { return HasEmbedding(ins, t); },
        [&](const Tree& t) {
          return IsReadInsertWitness(read, ins, x, t, semantics);
        });
    std::string diff = Diff(run, want);
    if (got != nullptr) *got = std::move(run.result);
    return diff;
  }

  /// Read-delete analogue of DiffInsert.
  std::string DiffDelete(const Pattern& read, const Pattern& del,
                         ConflictSemantics semantics,
                         const BoundedSearchOptions& options,
                         BruteForceResult* got = nullptr) {
    SearchRun run = Measure([&] {
      return BruteForceReadDeleteSearch(read, del, semantics, options);
    });
    const SearchRun want = ReferenceSearch(
        symbols_,
        SearchAlphabet(*symbols_, LabelsOf(read, del), {},
                       options.extra_labels),
        options,
        [&](const Tree& t) {
          return HasEmbedding(del, t) && HasEmbedding(read, t);
        },
        [&](const Tree& t) {
          return IsReadDeleteWitness(read, del, t, semantics);
        });
    std::string diff = Diff(run, want);
    if (got != nullptr) *got = std::move(run.result);
    return diff;
  }

  /// Compares both searches on `pairs` sampled (read, update) pairs per
  /// semantics and update kind; stops after a few reported mismatches.
  void CheckSampledPairs(size_t pairs, const BoundedSearchOptions& options,
                         uint64_t seed) {
    Rng rng(seed);
    int failures = 0;
    // Outcomes seen, so the sample provably reaches every branch.
    std::set<std::pair<SearchOutcome, bool>> seen;
    BruteForceResult got;
    for (ConflictSemantics semantics : kSemantics) {
      for (size_t k = 0; k < pairs && failures < 5; ++k) {
        const Pattern& read = patterns_[rng.NextBounded(patterns_.size())];
        const Pattern& ins = patterns_[rng.NextBounded(patterns_.size())];
        const Tree& x = contents_[rng.NextBounded(contents_.size())];
        const std::string insert_diff =
            DiffInsert(read, ins, x, semantics, options, &got);
        seen.emplace(got.outcome, got.truncated);
        if (!insert_diff.empty()) {
          ADD_FAILURE() << "insert " << ToXPathString(ins) << " "
                        << CanonicalCode(x) << " vs read "
                        << ToXPathString(read) << " ("
                        << ConflictSemanticsName(semantics)
                        << "):" << insert_diff;
          ++failures;
        }
        const Pattern& del =
            *delete_patterns_[rng.NextBounded(delete_patterns_.size())];
        const std::string delete_diff =
            DiffDelete(read, del, semantics, options, &got);
        seen.emplace(got.outcome, got.truncated);
        if (!delete_diff.empty()) {
          ADD_FAILURE() << "delete " << ToXPathString(del) << " vs read "
                        << ToXPathString(read) << " ("
                        << ConflictSemanticsName(semantics)
                        << "):" << delete_diff;
          ++failures;
        }
      }
    }
    const bool capped = options.max_trees < 303;  // shapes over {a, b, α}
    EXPECT_EQ(seen.count({SearchOutcome::kWitnessFound, capped}), 1u);
    EXPECT_EQ(seen.count({capped ? SearchOutcome::kBudgetExceeded
                                 : SearchOutcome::kExhaustedNoWitness,
                          capped}),
              1u);
  }

  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  std::vector<Pattern> patterns_;
  std::vector<const Pattern*> delete_patterns_;
  std::vector<Tree> contents_;
};

TEST_F(SearchEquivalenceTest, PatternSetIsComplete) {
  // 3 one-node, 36 two-node and 324 chain patterns. A fork's children are
  // an unordered pair of the 6 (label, axis) kinds: 15 distinct pairs with
  // 3 output choices and 6 twin pairs with 2, under each of 3 root labels.
  EXPECT_EQ(patterns_.size(), 3u + 36u + 324u + 3u * (15u * 3u + 6u * 2u));
  for (const Pattern& p : patterns_) EXPECT_TRUE(p.Validate().ok());
}

TEST_F(SearchEquivalenceTest, SampledPairsMatchTheReferenceLoop) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  CheckSampledPairs(/*pairs=*/700, options, /*seed=*/20061);
}

TEST_F(SearchEquivalenceTest, CappedSearchesMatchTheReferenceLoop) {
  // A cap inside the size-4 layer: truncated searches, some still finding
  // a witness before the cap.
  BoundedSearchOptions options;
  options.max_nodes = 4;
  options.max_trees = 100;
  CheckSampledPairs(/*pairs=*/200, options, /*seed=*/7);
}

TEST_F(SearchEquivalenceTest, WideReadRunsMultiWordBitsets) {
  // A read of 71 nodes, a[b]...[b][.//c] with the c last, puts the forest
  // past one 64-bit word: next to a 2-node delete pattern, the read's root
  // is bit 2 and its c child bit 72, so whether the read embeds, and with
  // it which shapes the delete search rejects, hinges on the second word.
  Pattern read(symbols_);
  const PatternNodeId root = read.CreateRoot(symbols_->Intern("a"));
  for (int i = 0; i < 69; ++i) {
    read.AddChild(root, symbols_->Intern("b"), Axis::kChild);
  }
  read.SetOutput(read.AddChild(root, symbols_->Intern("c"),
                               Axis::kDescendant));
  ASSERT_EQ(read.size(), 71u);
  BoundedSearchOptions options;
  options.max_nodes = 4;
  const Tree c = Xml("<c/>", symbols_);
  const Pattern ins = Xp("a/b", symbols_);
  const Pattern del = Xp("a/b", symbols_);
  for (ConflictSemantics semantics : kSemantics) {
    BruteForceResult got;
    EXPECT_EQ(DiffInsert(read, ins, c, semantics, options, &got), "");
    EXPECT_EQ(got.outcome, SearchOutcome::kWitnessFound);
    EXPECT_EQ(DiffDelete(read, del, semantics, options, &got), "");
    EXPECT_EQ(got.outcome, SearchOutcome::kWitnessFound);
  }
}

TEST_F(SearchEquivalenceTest, DtdSearchesMatchTheReferenceLoop) {
  // Schema: root a, a holds a/b/c, b is a leaf.
  Dtd dtd(symbols_);
  dtd.SetRootLabel(symbols_->Intern("a"));
  for (const char* child : {"a", "b", "c"}) {
    dtd.Allow(symbols_->Intern("a"), symbols_->Intern(child));
  }
  dtd.Seal(symbols_->Intern("b"));
  ASSERT_TRUE(dtd.Validate().ok());
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Rng rng(11);
  for (int k = 0; k < 150; ++k) {
    const ConflictSemantics semantics = kSemantics[rng.NextBounded(3)];
    const Pattern& read = patterns_[rng.NextBounded(patterns_.size())];
    const Pattern& ins = patterns_[rng.NextBounded(patterns_.size())];
    const Pattern& del =
        *delete_patterns_[rng.NextBounded(delete_patterns_.size())];
    const Tree& x = contents_[rng.NextBounded(contents_.size())];
    std::set<Label> insert_labels = dtd.MentionedLabels();
    for (Label l : LabelsOf(read, ins)) insert_labels.insert(l);
    const SearchRun insert_want = ReferenceSearch(
        symbols_,
        SearchAlphabet(*symbols_, insert_labels, LabelsOf(x),
                       options.extra_labels),
        options, [&](const Tree& t) { return HasEmbedding(ins, t); },
        [&](const Tree& t) {
          return dtd.Conforms(t) &&
                 IsReadInsertWitness(read, ins, x, t, semantics);
        });
    EXPECT_EQ(Diff(Measure([&] {
                     return FindReadInsertConflictUnderDtd(
                         read, ins, x, dtd, semantics, options);
                   }),
                   insert_want),
              "")
        << ToXPathString(read) << " / insert " << ToXPathString(ins);
    std::set<Label> delete_labels = dtd.MentionedLabels();
    for (Label l : LabelsOf(read, del)) delete_labels.insert(l);
    const SearchRun delete_want = ReferenceSearch(
        symbols_,
        SearchAlphabet(*symbols_, delete_labels, {}, options.extra_labels),
        options,
        [&](const Tree& t) {
          return HasEmbedding(del, t) && HasEmbedding(read, t);
        },
        [&](const Tree& t) {
          return dtd.Conforms(t) &&
                 IsReadDeleteWitness(read, del, t, semantics);
        });
    EXPECT_EQ(Diff(Measure([&] {
                     return FindReadDeleteConflictUnderDtd(read, del, dtd,
                                                           semantics, options);
                   }),
                   delete_want),
              "")
        << ToXPathString(read) << " / delete " << ToXPathString(del);
  }
}

TEST_F(SearchEquivalenceTest, CommutativitySearchMatchesTheReferenceLoop) {
  BoundedSearchOptions options;
  options.max_nodes = 4;
  Rng rng(13);
  auto random_op = [&]() {
    if (rng.NextBool(0.5)) {
      return UpdateOp::MakeInsert(
          patterns_[rng.NextBounded(patterns_.size())],
          std::make_shared<const Tree>(
              CopyTree(contents_[rng.NextBounded(contents_.size())])));
    }
    Result<UpdateOp> del = UpdateOp::MakeDelete(
        *delete_patterns_[rng.NextBounded(delete_patterns_.size())]);
    EXPECT_TRUE(del.ok());
    return std::move(del).value();
  };
  for (int k = 0; k < 150; ++k) {
    const UpdateOp o1 = random_op();
    const UpdateOp o2 = random_op();
    std::set<Label> labels = LabelsOf(o1.pattern(), o2.pattern());
    for (const UpdateOp* op : {&o1, &o2}) {
      if (op->kind() == UpdateOp::Kind::kInsert) {
        for (Label l : LabelsOf(op->content())) labels.insert(l);
      }
    }
    const SearchRun want = ReferenceSearch(
        symbols_, SearchAlphabet(*symbols_, labels, {}, options.extra_labels),
        options,
        [&](const Tree& t) {
          return HasEmbedding(o1.pattern(), t) ||
                 HasEmbedding(o2.pattern(), t);
        },
        [&](const Tree& t) { return !UpdatesCommuteOn(t, o1, o2); });
    EXPECT_EQ(Diff(Measure([&] {
                     return FindCommutativityViolation(o1, o2, options);
                   }),
                   want),
              "")
        << ToXPathString(o1.pattern()) << " vs "
        << ToXPathString(o2.pattern());
  }
}

// --- Reserved α and the shared table ---------------------------------------

TEST(SearchAlphabetTest, RepeatedSearchesMintNoSymbols) {
  std::shared_ptr<SymbolTable> symbols = NewSymbols();
  const Pattern read = Xp("a[b]//c", symbols);
  const Pattern ins = Xp("a/b", symbols);
  const Pattern del = Xp("a//b", symbols);
  const Tree x = Xml("<c/>", symbols);
  Result<UpdateOp> del_op = UpdateOp::MakeDelete(del);
  ASSERT_TRUE(del_op.ok());
  const UpdateOp ins_op =
      UpdateOp::MakeInsert(ins, std::make_shared<const Tree>(CopyTree(x)));
  Dtd dtd(symbols);
  dtd.SetRootLabel(symbols->Intern("a"));
  BoundedSearchOptions options;
  options.max_nodes = 3;
  options.extra_labels = 2;
  auto search_all = [&] {
    for (ConflictSemantics semantics :
         {ConflictSemantics::kNode, ConflictSemantics::kValue}) {
      BruteForceReadInsertSearch(read, ins, x, semantics, options);
      BruteForceReadDeleteSearch(read, del, semantics, options);
      FindReadInsertConflictUnderDtd(read, ins, x, dtd, semantics, options);
      FindReadDeleteConflictUnderDtd(read, del, dtd, semantics, options);
    }
    FindCommutativityViolation(ins_op, *del_op, options);
  };
  search_all();  // mints the reserved pool
  const size_t size = symbols->size();
  for (int i = 0; i < 25; ++i) search_all();
  EXPECT_EQ(symbols->size(), size);
}

TEST(SearchAlphabetTest, SkipsReservedLabelsTheInstanceUses) {
  std::shared_ptr<SymbolTable> symbols = NewSymbols();
  const Label a = symbols->Intern("a");
  const std::vector<Label> pool = symbols->ReservedOutside({}, 3);
  const Label r0 = pool[0];
  const Label r1 = pool[1];
  EXPECT_EQ(symbols->ReservedOutside({}, 1)[0], r0);  // reused, not re-minted
  EXPECT_EQ(SearchAlphabet(*symbols, {a}, {}, 1),
            (std::vector<Label>{a, r0}));
  // r0 in the patterns, r1 in the inserted content: α is the next one.
  const std::vector<Label> alphabet =
      SearchAlphabet(*symbols, {a, r0}, {r1}, 1);
  ASSERT_EQ(alphabet.size(), 3u);
  EXPECT_EQ(alphabet[0], a);
  EXPECT_EQ(alphabet[1], r0);
  EXPECT_NE(alphabet[2], r1);
  EXPECT_EQ(alphabet[2], pool[2]);
  // An empty instance still gets one label.
  EXPECT_EQ(SearchAlphabet(*symbols, {}, {}, 0), (std::vector<Label>{r0}));
}

TEST(ShapeTableTest, SharedTableMatchesAFreshBuild) {
  const ShapeTable built = ShapeTable::Build(3, 4, 1'000'000);
  const std::shared_ptr<const ShapeTable> shared =
      ShapeTable::Shared(3, 4, 1'000'000);
  EXPECT_EQ(shared, ShapeTable::Shared(3, 4, 1'000'000));
  ASSERT_EQ(built.count(), shared->count());
  for (uint32_t id = 0; id < built.count(); ++id) {
    EXPECT_EQ(built.label(id), shared->label(id));
    EXPECT_EQ(built.size(id), shared->size(id));
    const std::span<const uint32_t> children = built.children(id);
    EXPECT_TRUE(std::equal(children.begin(), children.end(),
                           shared->children(id).begin(),
                           shared->children(id).end()));
    for (uint32_t child : children) EXPECT_LT(child, id);
  }
}

TEST(ShapeTableTest, ColdCacheRaceBuildsOneTablePerKey) {
  // 8 threads search at once on a cap no other test uses, so both keys
  // start cold: threads 0-3 with alphabet {a, b, α}, threads 4-7 with
  // {a, b, c, α}. Each group must get one table and identical answers.
  std::shared_ptr<SymbolTable> symbols = NewSymbols();
  const Pattern reads[] = {Xp("a[b]/b", symbols), Xp("a[b]//c", symbols)};
  const Pattern ins = Xp("a/b", symbols);
  const Tree x = Xml("<b/>", symbols);
  symbols->ReservedOutside({}, 1);  // mint α before the threads start
  BoundedSearchOptions options;
  options.max_nodes = 5;
  options.max_trees = 1'999'999;
  obs::Counter& builds = obs::MetricsRegistry::Default().GetCounter(
      "bounded_search.table_builds");
  const uint64_t builds_before = builds.value();
  constexpr int kThreads = 8;
  std::vector<BruteForceResult> results(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      results[i] = BruteForceReadInsertSearch(
          reads[i / 4], ins, x, ConflictSemantics::kNode, options);
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.value() - builds_before, 2u);
  for (int i = 0; i < kThreads; ++i) {
    const BruteForceResult& first = results[i / 4 * 4];
    EXPECT_EQ(results[i].outcome, first.outcome) << "thread " << i;
    EXPECT_EQ(results[i].trees_checked, first.trees_checked) << "thread " << i;
    ASSERT_EQ(results[i].witness.has_value(), first.witness.has_value());
    if (first.witness.has_value()) {
      EXPECT_EQ(CanonicalCode(*results[i].witness),
                CanonicalCode(*first.witness))
          << "thread " << i;
    }
  }
  EXPECT_NE(results[0].trees_checked, results[4].trees_checked);
}

}  // namespace
}  // namespace xmlup
