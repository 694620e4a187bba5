// End-to-end flows across modules: XML in, XPath in, conflict analysis,
// program optimization, serialized XML out.

#include "analysis/interpreter.h"
#include "analysis/optimizer.h"
#include "common/random.h"
#include "conflict/detector.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/catalog_generator.h"
#include "xml/tree_algos.h"
#include "xml/xml_writer.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

TEST(IntegrationTest, RestockPipeline) {
  auto symbols = NewSymbols();
  Rng rng(99);
  CatalogOptions options;
  options.num_books = 100;
  options.low_fraction = 0.25;
  Tree catalog = GenerateCatalog(symbols, options, &rng);
  const size_t low_before =
      Evaluate(Xp("catalog/book[.//low]", symbols), catalog).size();

  // The paper's insert: add <restock/> to low-quantity books.
  const UpdateOp restock = UpdateOp::MakeInsert(
      Xp("catalog/book[.//low]", symbols),
      std::make_shared<const Tree>(Xml("<restock/>", symbols)));
  const UpdateOp::Applied applied = restock.ApplyInPlace(&catalog);
  EXPECT_EQ(applied.points.size(), low_before);
  EXPECT_EQ(Evaluate(Xp("catalog/book/restock", symbols), catalog).size(),
            low_before);

  // Round-trip through XML.
  const std::string xml = WriteXml(catalog);
  Tree reparsed = Xml(xml, symbols);
  EXPECT_EQ(reparsed.size(), catalog.size());
}

TEST(IntegrationTest, ConflictAwareCompilerPass) {
  auto symbols = NewSymbols();
  // A program mixing independent and dependent operations.
  Program program;
  program.AddRead("titles", "cat", Xp("catalog//title", symbols));
  program.AddInsert("cat", Xp("catalog/book[.//low]", symbols),
                    std::make_shared<const Tree>(Xml("<restock/>", symbols)));
  program.AddRead("restocks", "cat", Xp("catalog//restock", symbols));
  program.AddRead("titles2", "cat", Xp("catalog//title", symbols));

  DetectorOptions dopts;
  dopts.semantics = ConflictSemantics::kTree;
  Optimizer optimizer(dopts);
  const OptimizeResult optimized = optimizer.EliminateCommonReads(program);
  // titles2 can reuse titles: inserting <restock/> never changes //title
  // results (restock contains no title).
  EXPECT_EQ(optimized.reads_aliased, 1u);

  // The dependence analysis keeps restocks after the insert.
  DependenceAnalyzer analyzer(dopts);
  const DependenceAnalysisResult deps = analyzer.Analyze(program);
  bool insert_blocks_restocks = false;
  for (const Dependence& d : deps.dependences) {
    if (d.from == 1 && d.to == 2) insert_blocks_restocks = true;
  }
  EXPECT_TRUE(insert_blocks_restocks);

  // Execute original and optimized: same observable reads.
  Rng rng(5);
  CatalogOptions catalog_options;
  catalog_options.num_books = 30;
  // Clone a common prototype twice so node ids line up across both runs.
  TreeStore prototype(symbols);
  prototype.Put("cat", GenerateCatalog(symbols, catalog_options, &rng));
  TreeStore store = prototype.Clone();
  TreeStore store2 = prototype.Clone();
  Result<ExecutionTrace> t1 = Execute(program, &store);
  Result<ExecutionTrace> t2 = Execute(optimized.program, &store2);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_EQ(t1->reads.size(), t2->reads.size());
  for (size_t i = 0; i < t1->reads.size(); ++i) {
    EXPECT_EQ(t1->reads[i].nodes, t2->reads[i].nodes);
  }
}

TEST(IntegrationTest, DetectorMatchesExecutionOnCatalogWorkload) {
  // For a batch of reads and updates over the catalog schema, whenever
  // the detector proves independence, executing the update must leave the
  // read's result unchanged on concrete documents.
  auto symbols = NewSymbols();
  Rng rng(17);
  CatalogOptions options;
  options.num_books = 40;
  Tree catalog = GenerateCatalog(symbols, options, &rng);

  const char* reads[] = {"catalog//title", "catalog/book",
                         "catalog//restock", "catalog//low",
                         "catalog/book/stock/quantity"};
  const char* inserts[] = {"catalog/book[.//low]", "catalog/book",
                           "catalog//quantity"};
  const char* contents[] = {"<restock/>", "<note><flag/></note>"};

  for (const char* read_xpath : reads) {
    for (const char* insert_xpath : inserts) {
      for (const char* content_xml : contents) {
        const Pattern read = Xp(read_xpath, symbols);
        const Pattern ins = Xp(insert_xpath, symbols);
        auto x = std::make_shared<const Tree>(Xml(content_xml, symbols));
        const UpdateOp op = UpdateOp::MakeInsert(ins, x);
        Result<ConflictReport> report = Detect(read, op);
        ASSERT_TRUE(report.ok());
        if (report->verdict != ConflictVerdict::kNoConflict) continue;
        // Execute on the concrete catalog: results must be identical.
        Tree work = CopyTree(catalog);
        const std::vector<NodeId> before = Evaluate(read, work);
        op.ApplyInPlace(&work);
        EXPECT_EQ(Evaluate(read, work), before)
            << read_xpath << " should be independent of insert at "
            << insert_xpath;
      }
    }
  }
}

}  // namespace
}  // namespace xmlup
