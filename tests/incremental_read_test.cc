#include "eval/incremental_read.h"

#include "common/random.h"
#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

/// Applies `insert` to `t` and reports it to the read watching `t`.
void ApplyInsert(const UpdateOp& insert, Tree* t, IncrementalRead* read) {
  const UpdateOp::Applied applied = insert.ApplyInPlace(t);
  read->OnInsert(applied.points, applied.copy_roots);
}

class IncrementalReadTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  UpdateOp Insert(const char* xpath, const char* xml) {
    return UpdateOp::MakeInsert(
        Xp(xpath, symbols_), std::make_shared<const Tree>(Xml(xml, symbols_)));
  }
  UpdateOp Delete(const char* xpath) {
    return UpdateOp::MakeDelete(Xp(xpath, symbols_)).value();
  }
};

TEST_F(IncrementalReadTest, InitialResultsMatchEvaluator) {
  Tree t = Xml("<a><b><c/></b><b/><d><b/></d></a>", symbols_);
  const Pattern p = Xp("a//b", symbols_);
  Result<IncrementalRead> read = IncrementalRead::Make(p, &t);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->Results(), Evaluate(p, t));
}

TEST_F(IncrementalReadTest, RejectsBranchingAndHugePatterns) {
  Tree t = Xml("<a/>", symbols_);
  EXPECT_FALSE(IncrementalRead::Make(Xp("a[b]", symbols_), &t).ok());
  Pattern huge(symbols_);
  PatternNodeId n = huge.CreateRoot(symbols_->Intern("a"));
  for (int i = 0; i < 70; ++i) {
    n = huge.AddChild(n, kWildcardLabel, Axis::kChild);
  }
  huge.SetOutput(n);
  EXPECT_FALSE(IncrementalRead::Make(huge, &t).ok());
}

TEST_F(IncrementalReadTest, InsertAddsResultsIncrementally) {
  Tree t = Xml("<a><B/></a>", symbols_);
  const Pattern p = Xp("a//C", symbols_);
  Result<IncrementalRead> read = IncrementalRead::Make(p, &t);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Results().empty());

  ApplyInsert(Insert("a/B", "<C><C/></C>"), &t, &*read);
  EXPECT_EQ(read->Results(), Evaluate(p, t));
  EXPECT_EQ(read->Results().size(), 2u);
}

TEST_F(IncrementalReadTest, DeleteRemovesResultsLazily) {
  Tree t = Xml("<a><b><m/></b><c><m/></c></a>", symbols_);
  const Pattern p = Xp("a//m", symbols_);
  Result<IncrementalRead> read = IncrementalRead::Make(p, &t);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->Results().size(), 2u);

  Delete("a/b").ApplyInPlace(&t);
  read->OnDelete();
  EXPECT_EQ(read->Results(), Evaluate(p, t));
  EXPECT_EQ(read->Results().size(), 1u);
}

TEST_F(IncrementalReadTest, MixedUpdateSequence) {
  Tree t = Xml("<r><x/><y/></r>", symbols_);
  const Pattern p = Xp("r//q", symbols_);
  Result<IncrementalRead> read = IncrementalRead::Make(p, &t);
  ASSERT_TRUE(read.ok());

  ApplyInsert(Insert("r/x", "<q/>"), &t, &*read);
  EXPECT_EQ(read->Results(), Evaluate(p, t));

  ApplyInsert(Insert("r//q", "<q/>"), &t, &*read);
  EXPECT_EQ(read->Results(), Evaluate(p, t));

  Delete("r/x").ApplyInPlace(&t);
  read->OnDelete();
  EXPECT_EQ(read->Results(), Evaluate(p, t));
}

TEST_F(IncrementalReadTest, ChildAxisAndWildcards) {
  Tree t = Xml("<a><w/></a>", symbols_);
  const Pattern p = Xp("a/*/n", symbols_);
  Result<IncrementalRead> read = IncrementalRead::Make(p, &t);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Results().empty());
  ApplyInsert(Insert("a/w", "<n/>"), &t, &*read);
  ASSERT_EQ(read->Results().size(), 1u);
  EXPECT_EQ(t.LabelName(read->Results()[0]), "n");
}

/// Property: a random interleaving of inserts and deletes, with the
/// incremental result set cross-checked against full evaluation at every
/// step.
class IncrementalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalPropertyTest, AgreesWithFullEvaluation) {
  auto symbols = NewSymbols();
  Rng rng(70000 + GetParam());

  PatternGenOptions pattern_options;
  pattern_options.size = 3;
  pattern_options.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                              symbols->Intern("c")};
  RandomPatternGenerator patterns(symbols, pattern_options);

  TreeGenOptions tree_options;
  tree_options.target_size = 25;
  tree_options.alphabet = pattern_options.alphabet;
  RandomTreeGenerator trees(symbols, tree_options);

  for (int iter = 0; iter < 5; ++iter) {
    Tree t = trees.Generate(&rng);
    const Pattern watched = patterns.GenerateLinear(&rng);
    Result<IncrementalRead> read = IncrementalRead::Make(watched, &t);
    ASSERT_TRUE(read.ok());
    for (int step = 0; step < 12; ++step) {
      if (rng.NextBool(0.6)) {
        Tree content = trees.Generate(&rng);
        ApplyInsert(UpdateOp::MakeInsert(
                        patterns.GenerateLinear(&rng),
                        std::make_shared<const Tree>(std::move(content))),
                    &t, &*read);
      } else {
        Pattern del_pattern = patterns.GenerateLinear(&rng);
        if (del_pattern.output() == del_pattern.root()) continue;
        Result<UpdateOp> del = UpdateOp::MakeDelete(std::move(del_pattern));
        ASSERT_TRUE(del.ok());
        del->ApplyInPlace(&t);
        read->OnDelete();
      }
      ASSERT_EQ(read->Results(), Evaluate(watched, t))
          << "seed=" << GetParam() << " iter=" << iter << " step=" << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace xmlup
