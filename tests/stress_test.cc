// Larger-scale sanity checks: the library's core paths on documents with
// hundreds of thousands of nodes. These protect against accidental
// super-linear regressions the micro-tests would not notice.

#include "common/random.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "pattern/compiled_pattern.h"
#include "tests/test_util.h"
#include "workload/catalog_generator.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xp;

TEST(StressTest, LargeCatalogEvaluationAndUpdate) {
  auto symbols = NewSymbols();
  Rng rng(1);
  CatalogOptions options;
  options.num_books = 20000;
  options.low_fraction = 0.25;
  Tree catalog = GenerateCatalog(symbols, options, &rng);
  EXPECT_GT(catalog.size(), 100000u);
  ASSERT_TRUE(catalog.Validate().ok());

  const Pattern condition = Xp("catalog/book[.//low]", symbols);
  const std::vector<NodeId> low = Evaluate(condition, catalog);
  EXPECT_GT(low.size(), 3000u);
  EXPECT_LT(low.size(), 7000u);

  Tree restock(symbols);
  restock.CreateRoot(symbols->Intern("restock"));
  const UpdateOp insert = UpdateOp::MakeInsert(
      condition, std::make_shared<const Tree>(std::move(restock)));
  const UpdateOp::Applied applied = insert.ApplyInPlace(&catalog);
  EXPECT_EQ(applied.points.size(), low.size());
  EXPECT_TRUE(catalog.Validate().ok());

  Result<UpdateOp> drop =
      UpdateOp::MakeDelete(Xp("catalog/book[.//high]", symbols));
  ASSERT_TRUE(drop.ok());
  drop->ApplyInPlace(&catalog);
  ASSERT_TRUE(catalog.Validate().ok());
  // Every remaining book is a restocked low-quantity book.
  EXPECT_EQ(Evaluate(Xp("catalog/book", symbols), catalog).size(),
            low.size());
}

TEST(StressTest, LargeXmlRoundTrip) {
  auto symbols = NewSymbols();
  Rng rng(2);
  TreeGenOptions options;
  options.target_size = 150000;
  options.max_depth = 40;
  options.max_children = 10;
  options.alphabet = RandomTreeGenerator::MakeAlphabet(symbols.get(), 12);
  RandomTreeGenerator gen(symbols, options);
  const Tree original = gen.Generate(&rng);
  const std::string xml = WriteXml(original);
  Result<Tree> reparsed = ParseXml(xml, symbols);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->size(), original.size());
  EXPECT_TRUE(OrderedEqual(original, *reparsed));
}

TEST(StressTest, DeepChainEvaluation) {
  // Depth-100000 chain: iterative algorithms must not overflow the stack.
  auto symbols = NewSymbols();
  Tree chain(symbols);
  NodeId node = chain.CreateRoot(symbols->Intern("c"));
  for (int i = 0; i < 100000; ++i) node = chain.AddChild(node, symbols->Intern("c"));
  const Pattern deep = Xp("c//c", symbols);
  EXPECT_EQ(Evaluate(deep, chain).size(), 100000u);
  EXPECT_EQ(CanonicalCode(chain).size(), 100001u * 3);
  Tree copy = CopyTree(chain);
  EXPECT_EQ(copy.size(), chain.size());
}

TEST(StressTest, DetectionWithLargePatterns) {
  // 512-node linear patterns: detection stays comfortably polynomial.
  auto symbols = NewSymbols();
  Pattern read(symbols);
  PatternNodeId n = read.CreateRoot(symbols->Intern("a"));
  for (int i = 0; i < 511; ++i) {
    n = read.AddChild(n, i % 7 == 0 ? kWildcardLabel : symbols->Intern("s"),
                      i % 3 == 0 ? Axis::kDescendant : Axis::kChild);
  }
  read.SetOutput(n);
  Pattern del(symbols);
  n = del.CreateRoot(symbols->Intern("a"));
  for (int i = 0; i < 255; ++i) {
    n = del.AddChild(n, symbols->Intern("s"), Axis::kDescendant);
  }
  del.SetOutput(n);
  Result<ConflictReport> report =
      DetectLinearReadDeleteConflict(read, del, ConflictSemantics::kNode);
  ASSERT_TRUE(report.ok()) << report.status();
  if (report->conflict()) {
    ASSERT_TRUE(report->witness.has_value());
    EXPECT_TRUE(IsReadDeleteWitness(read, del, *report->witness,
                                    ConflictSemantics::kNode));
  }
}

TEST(StressTest, CompiledPatternIsLinearInPatternSize) {
  // Every prefix the detectors match against is a view of the one chain of
  // per-node classes and axes, so the compiled form is linear in the
  // pattern's size: a 1 024-node chain stays far below 1 MB.
  auto symbols = NewSymbols();
  Pattern chain(symbols);
  PatternNodeId n = chain.CreateRoot(symbols->Intern("a"));
  for (int i = 1; i < 1024; ++i) {
    n = chain.AddChild(n, i % 7 == 0 ? kWildcardLabel : symbols->Intern("s"),
                       i % 3 == 0 ? Axis::kDescendant : Axis::kChild);
  }
  chain.SetOutput(n);
  const CompiledPattern compiled(chain);
  EXPECT_EQ(compiled.chain_length(), 1024u);
  EXPECT_LT(compiled.bytes(), size_t{1} << 20);
}

}  // namespace
}  // namespace xmlup
