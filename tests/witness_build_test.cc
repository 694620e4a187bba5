#include "conflict/witness_build.h"

#include <set>

#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "pattern/pattern_ops.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

class WitnessBuildTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

TEST_F(WitnessBuildTest, MatchWordToPathResolvesClasses) {
  const ClassWord word = {LabelClass::Of(symbols_->Intern("a")),
                          LabelClass::Any(),
                          LabelClass::Of(symbols_->Intern("b"))};
  NodeId deepest = kNullNode;
  const Label filler = symbols_->Intern("f");
  Tree path = MatchWordToPath(word, symbols_, filler, &deepest);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.LabelName(path.root()), "a");
  EXPECT_EQ(path.LabelName(deepest), "b");
  // The Any position resolved to the filler.
  const NodeId middle = path.first_child(path.root());
  EXPECT_EQ(path.label(middle), filler);
  EXPECT_EQ(path.first_child(deepest), kNullNode);
}

TEST_F(WitnessBuildTest, FillersAreReservedLabelsOutsideTheInputs) {
  const Pattern read = Xp("a//b", symbols_);
  const Pattern update = Xp("a[c]/d", symbols_);
  const std::vector<Label> fill = FillerLabels({&read, &update}, {}, 3);
  ASSERT_EQ(fill.size(), 3u);
  EXPECT_EQ(std::set<Label>(fill.begin(), fill.end()).size(), 3u);
  for (Label label : fill) {
    for (const char* used : {"a", "b", "c", "d"}) {
      EXPECT_NE(symbols_->Name(label), used);
    }
  }
  // Repeated picks reuse the pool: the table does not grow.
  const size_t size = symbols_->size();
  EXPECT_EQ(FillerLabels({&read, &update}, {}, 3), fill);
  EXPECT_EQ(symbols_->size(), size);
  // A reserved label an input uses is skipped.
  Tree content(symbols_);
  content.CreateRoot(fill[0]);
  const std::vector<Label> around = FillerLabels({&read}, {&content}, 1);
  EXPECT_EQ(around, std::vector<Label>{fill[1]});
}

TEST_F(WitnessBuildTest, BranchModelsMakeFullPatternEmbed) {
  // The mainline of a[x][.//y]/b embeds into the path a/b; after grafting
  // branch models everywhere, the full pattern must embed too (the
  // Lemma 4/8 extension step).
  const Pattern full = Xp("a[x][.//y]/b", symbols_);
  Tree path(symbols_);
  const NodeId root = path.CreateRoot(symbols_->Intern("a"));
  path.AddChild(root, symbols_->Intern("b"));
  EXPECT_FALSE(HasEmbedding(full, path));  // predicates unsatisfied
  GraftBranchModelsEverywhere(&path, full, symbols_->Intern("f"));
  EXPECT_TRUE(HasEmbedding(full, path));
  EXPECT_TRUE(path.Validate().ok());
}

TEST_F(WitnessBuildTest, LinearPatternGraftsNothing) {
  const Pattern linear = Xp("a/b//c", symbols_);
  Tree path(symbols_);
  path.CreateRoot(symbols_->Intern("a"));
  const size_t before = path.size();
  GraftBranchModelsEverywhere(&path, linear, symbols_->Intern("f"));
  EXPECT_EQ(path.size(), before);
}

TEST_F(WitnessBuildTest, DeepBranchSubtreesCopiedWhole) {
  // Branches may themselves branch; the grafted model carries the whole
  // subpattern.
  const Pattern full = Xp("a[x[y][z]]/b", symbols_);
  Tree path(symbols_);
  const NodeId root = path.CreateRoot(symbols_->Intern("a"));
  path.AddChild(root, symbols_->Intern("b"));
  GraftBranchModelsEverywhere(&path, full, symbols_->Intern("f"));
  EXPECT_TRUE(HasEmbedding(full, path));
  // Each original node gained one branch model of 3 nodes (x, y, z).
  EXPECT_EQ(path.size(), 2u + 2u * 3u);
}

}  // namespace
}  // namespace xmlup
