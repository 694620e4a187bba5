#include "analysis/optimizer.h"

#include <tuple>
#include <vector>

#include "analysis/interpreter.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/program_generator.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class AnalysisTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::shared_ptr<const Tree> Content(const char* xml) {
    return std::make_shared<const Tree>(Xml(xml, symbols_));
  }
};

TEST_F(AnalysisTest, InterpreterRunsPaperProgram) {
  // §1:  y = read $x//A ; insert $x/B, <C/> ; z = read $x//C
  Program program;
  program.AddRead("y", "x", Xp("x//A", symbols_));
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("z", "x", Xp("x//C", symbols_));

  TreeStore store(symbols_);
  store.Put("x", Xml("<x><A/><B/></x>", symbols_));
  Result<ExecutionTrace> trace = Execute(program, &store);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_EQ(trace->reads.size(), 2u);
  EXPECT_EQ(trace->reads[0].nodes.size(), 1u);  // one A
  EXPECT_EQ(trace->reads[1].nodes.size(), 1u);  // the inserted C
  EXPECT_EQ(store.Get("x").size(), 4u);
}

TEST_F(AnalysisTest, TreeStoreBasics) {
  TreeStore store(symbols_);
  EXPECT_FALSE(store.Has("x"));
  store.Put("x", Xml("<a><b/></a>", symbols_));
  ASSERT_TRUE(store.Has("x"));
  EXPECT_EQ(store.Get("x").size(), 2u);
  // Put replaces.
  store.Put("x", Xml("<a/>", symbols_));
  EXPECT_EQ(store.Get("x").size(), 1u);
  // Clones are deep and independent.
  TreeStore clone = store.Clone();
  clone.GetMutable("x")->AddChild(clone.Get("x").root(),
                                  symbols_->Intern("new"));
  EXPECT_EQ(store.Get("x").size(), 1u);
  EXPECT_EQ(clone.Get("x").size(), 2u);
}

TEST_F(AnalysisTest, InterpreterReportsUnknownVariable) {
  Program program;
  program.AddRead("y", "ghost", Xp("a", symbols_));
  TreeStore store(symbols_);
  EXPECT_FALSE(Execute(program, &store).ok());
}

TEST_F(AnalysisTest, InterpreterRejectsRootDelete) {
  Program program;
  program.AddDelete("x", Xp("x", symbols_));
  TreeStore store(symbols_);
  store.Put("x", Xml("<x/>", symbols_));
  EXPECT_FALSE(Execute(program, &store).ok());
}

/// Runs `insert $x/B, content` on <x><A/><B/></x>: a malformed insert must
/// fail with the InvalidArgument lint reports as malformed-update, leaving
/// the tree untouched.
void ExpectMalformedInsertRejected(const std::shared_ptr<SymbolTable>& symbols,
                                   std::shared_ptr<const Tree> content,
                                   const std::string& why) {
  Program program;
  program.AddInsert("x", Xp("x/B", symbols), std::move(content));
  TreeStore store(symbols);
  store.Put("x", Xml("<x><A/><B/></x>", symbols));
  const Result<ExecutionTrace> trace = Execute(program, &store);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(trace.status().message(), why);
  EXPECT_EQ(store.Get("x").size(), 3u);
}

TEST_F(AnalysisTest, InterpreterRejectsInsertWithoutContent) {
  ExpectMalformedInsertRejected(symbols_, nullptr,
                                "insert has no content tree");
}

TEST_F(AnalysisTest, InterpreterRejectsInsertWithRootlessContent) {
  ExpectMalformedInsertRejected(symbols_,
                                std::make_shared<const Tree>(symbols_),
                                "insert content tree has no root");
}

TEST_F(AnalysisTest, DependenceDifferentVariablesIndependent) {
  Program program;
  program.AddRead("y", "x1", Xp("a//b", symbols_));
  program.AddInsert("x2", Xp("a//b", symbols_), Content("<b/>"));
  DependenceAnalyzer analyzer;
  const DependenceAnalysisResult result = analyzer.Analyze(program);
  EXPECT_TRUE(result.dependences.empty());
  EXPECT_EQ(result.pairs_independent, 1u);
}

TEST_F(AnalysisTest, DependenceReadsIndependent) {
  Program program;
  program.AddRead("y", "x", Xp("a//b", symbols_));
  program.AddRead("z", "x", Xp("a//b", symbols_));
  DependenceAnalyzer analyzer;
  EXPECT_TRUE(analyzer.Analyze(program).dependences.empty());
}

TEST_F(AnalysisTest, DependenceDetectsReadInsertConflict) {
  // The paper's §1 example: read //C depends on insert of <C/>; read //D
  // does not.
  Program program;
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("z", "x", Xp("x//C", symbols_));
  program.AddRead("w", "x", Xp("x//D", symbols_));
  DependenceAnalyzer analyzer;
  const DependenceAnalysisResult result = analyzer.Analyze(program);
  ASSERT_EQ(result.dependences.size(), 1u);
  EXPECT_EQ(result.dependences[0].from, 0u);
  EXPECT_EQ(result.dependences[0].to, 1u);
}

TEST_F(AnalysisTest, UpdateUpdateCertifiedIndependent) {
  // Disjoint updates earn a commutativity certificate (§6 extension) and
  // need no ordering edge.
  Program program;
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));
  program.AddDelete("x", Xp("a/zzz", symbols_));
  DependenceAnalyzer analyzer;
  EXPECT_TRUE(analyzer.Analyze(program).dependences.empty());
}

TEST_F(AnalysisTest, UpdateUpdateStaysOrderedWithoutCertificate) {
  // The first insert creates b nodes the second insert fires on: no
  // certificate, so the pair keeps its order.
  Program program;
  program.AddInsert("x", Xp("a", symbols_), Content("<b/>"));
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));
  DependenceAnalyzer analyzer;
  EXPECT_EQ(analyzer.Analyze(program).dependences.size(), 1u);
}

TEST_F(AnalysisTest, MalformedInsertsAreDependentOnTheirVariable) {
  // Inserts with null or rootless content are malformed: conservatively
  // ordered against every statement on their variable, never modeled.
  Program program;
  program.AddInsert("x", Xp("x/a", symbols_), nullptr);
  program.AddRead("r", "x", Xp("x/a/b", symbols_));
  program.AddInsert("x", Xp("x/c", symbols_),
                    std::make_shared<const Tree>(symbols_));
  program.AddRead("s", "v", Xp("x/a/b", symbols_));
  DependenceAnalyzer analyzer;
  const DependenceAnalysisResult result = analyzer.Analyze(program);
  ASSERT_EQ(result.dependences.size(), 3u);
  EXPECT_EQ(result.dependences[0].from, 0u);
  EXPECT_EQ(result.dependences[0].to, 1u);
  EXPECT_EQ(result.dependences[1].from, 0u);
  EXPECT_EQ(result.dependences[1].to, 2u);
  EXPECT_EQ(result.dependences[2].from, 1u);
  EXPECT_EQ(result.dependences[2].to, 2u);
  EXPECT_EQ(result.pairs_independent, 3u);

  Optimizer optimizer;
  EXPECT_EQ(optimizer.EliminateCommonReads(program).reads_aliased, 0u);
  EXPECT_EQ(optimizer.HoistReadsSchedule(program).size(), 4u);
}

TEST_F(AnalysisTest, GraphClassifiesMixedTwoVariableProgram) {
  // Reads, inserts and deletes on x and v, with a root-selecting delete, a
  // null-content insert and a rootless insert among them: malformed,
  // update/update and read/update pairs interleave in visit order, so a
  // verdict or certificate handed to the wrong pair changes the list.
  Program program;
  program.AddRead("y", "x", Xp("a//b", symbols_));                    // 0
  program.AddRead("y", "x", Xp("a/b/c", symbols_));                   // 1
  program.AddRead("y", "x", Xp("x//C", symbols_));                    // 2
  program.AddRead("y", "v", Xp("a//b", symbols_));                    // 3
  program.AddInsert("x", Xp("a/b", symbols_), Content("<c/>"));       // 4
  program.AddInsert("x", Xp("a", symbols_), Content("<b><c/></b>"));  // 5
  program.AddInsert("v", Xp("a/b", symbols_), Content("<c/>"));       // 6
  program.AddDelete("x", Xp("a//c", symbols_));                       // 7
  program.AddDelete("x", Xp("a/zzz", symbols_));                      // 8
  program.AddDelete("v", Xp("b/c", symbols_));                        // 9
  program.AddDelete("x", Xp("a", symbols_));  // 10: selects the root
  program.AddInsert("x", Xp("a/b", symbols_), nullptr);  // 11: no content
  program.AddInsert("v", Xp("a", symbols_),
                    std::make_shared<const Tree>(symbols_));  // 12: rootless
  BatchDetectorOptions options;
  options.detector.search.max_nodes = 4;
  options.num_threads = 2;
  const DependenceGraph graph = DependenceAnalyzer(options).Graph(program);

  using Edge = std::tuple<size_t, size_t, EdgeReason>;
  std::vector<Edge> edges;
  for (const DependenceEdge& e : graph.edges()) {
    edges.emplace_back(e.from, e.to, e.reason);
  }
  constexpr EdgeReason kC = EdgeReason::kConflict;
  constexpr EdgeReason kU = EdgeReason::kUpdatePair;
  constexpr EdgeReason kM = EdgeReason::kMalformed;
  const std::vector<Edge> expected = {
      {0, 5, kC},  {0, 7, kC},  {0, 8, kC},  {0, 10, kM}, {0, 11, kM},
      {1, 4, kC},  {1, 5, kC},  {1, 7, kC},  {1, 10, kM}, {1, 11, kM},
      {2, 10, kM}, {2, 11, kM}, {3, 12, kM}, {4, 5, kU},  {4, 7, kU},
      {4, 10, kM}, {4, 11, kM}, {5, 7, kU},  {5, 10, kM}, {5, 11, kM},
      {6, 12, kM}, {7, 8, kU},  {7, 10, kM}, {7, 11, kM}, {8, 10, kM},
      {8, 11, kM}, {9, 12, kM}, {10, 11, kM},
  };
  EXPECT_EQ(edges, expected);
  EXPECT_EQ(graph.verdicts_consulted(), 14u);
  EXPECT_EQ(graph.certificates_consulted(), 7u);
}

TEST_F(AnalysisTest, CseAliasesRepeatedRead) {
  // The paper's functional example: the second read of the same pattern
  // can reuse the first result because the insert between them does not
  // conflict.
  Program program;
  program.AddRead("y", "x", Xp("x/*/A", symbols_));
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("u", "x", Xp("x/*/A", symbols_));
  Optimizer optimizer;
  const OptimizeResult result = optimizer.EliminateCommonReads(program);
  EXPECT_EQ(result.reads_aliased, 1u);
  ASSERT_TRUE(result.program.statements()[2].alias_of.has_value());
  EXPECT_EQ(*result.program.statements()[2].alias_of, 0u);
}

TEST_F(AnalysisTest, CseBlockedByConflictingUpdate) {
  Program program;
  program.AddRead("y", "x", Xp("x//C", symbols_));
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("u", "x", Xp("x//C", symbols_));
  Optimizer optimizer;
  const OptimizeResult result = optimizer.EliminateCommonReads(program);
  EXPECT_EQ(result.reads_aliased, 0u);
}

TEST_F(AnalysisTest, CsePreservesExecutionResults) {
  Program program;
  program.AddRead("y", "x", Xp("x/*/A", symbols_));
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("u", "x", Xp("x/*/A", symbols_));
  Optimizer optimizer;
  const OptimizeResult optimized = optimizer.EliminateCommonReads(program);
  ASSERT_EQ(optimized.reads_aliased, 1u);

  // Clone a common prototype twice so node ids line up across both runs
  // (cloning renumbers nodes relative to the parsed original).
  TreeStore prototype(symbols_);
  prototype.Put("x", Xml("<x><B><A/></B><D><A/></D></x>", symbols_));
  TreeStore store1 = prototype.Clone();
  TreeStore store2 = prototype.Clone();
  Result<ExecutionTrace> t1 = Execute(program, &store1);
  Result<ExecutionTrace> t2 = Execute(optimized.program, &store2);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_EQ(t1->reads.size(), t2->reads.size());
  for (size_t i = 0; i < t1->reads.size(); ++i) {
    EXPECT_EQ(t1->reads[i].nodes, t2->reads[i].nodes);
  }
}

TEST_F(AnalysisTest, HoistScheduleRespectsDependences) {
  Program program;
  program.AddInsert("x", Xp("x/B", symbols_), Content("<C/>"));
  program.AddRead("z", "x", Xp("x//C", symbols_));  // depends on 0
  program.AddRead("w", "x", Xp("x//D", symbols_));  // independent
  Optimizer optimizer;
  const std::vector<size_t> schedule = optimizer.HoistReadsSchedule(program);
  ASSERT_EQ(schedule.size(), 3u);
  // The independent read w is hoisted before the insert; z stays after.
  size_t pos_insert = 0;
  size_t pos_z = 0;
  size_t pos_w = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i] == 0) pos_insert = i;
    if (schedule[i] == 1) pos_z = i;
    if (schedule[i] == 2) pos_w = i;
  }
  EXPECT_LT(pos_w, pos_insert);
  EXPECT_LT(pos_insert, pos_z);
}

TEST_F(AnalysisTest, ProgramToStringListsStatements) {
  Program program;
  program.AddRead("y", "x", Xp("a//b", symbols_));
  program.AddInsert("x", Xp("a", symbols_), Content("<c/>"));
  program.AddDelete("x", Xp("a/b", symbols_));
  const std::string listing = program.ToString();
  EXPECT_NE(listing.find("read $x/a//b"), std::string::npos);
  EXPECT_NE(listing.find("insert $x/a, <c/>"), std::string::npos);
  EXPECT_NE(listing.find("delete $x/a/b"), std::string::npos);
}

/// Property: reordering by the hoist schedule and CSE both preserve the
/// observable value semantics of random programs on random stores.
class OptimizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerPropertyTest, TransformationsPreserveValueSemantics) {
  auto symbols = NewSymbols();
  Rng rng(30000 + GetParam());

  ProgramGenOptions options;
  options.num_statements = 8;
  options.num_variables = 2;
  options.pattern.size = 3;
  options.pattern.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                              symbols->Intern("c")};
  RandomProgramGenerator programs(symbols, options);

  TreeGenOptions tree_options;
  tree_options.target_size = 12;
  tree_options.alphabet = options.pattern.alphabet;
  RandomTreeGenerator trees(symbols, tree_options);

  // Tree-conflict semantics makes reordering safe for *value*-level
  // observations: a read hoisted past an update must keep not only its
  // node set (node semantics) but the subtree values it returns.
  DetectorOptions detector_options;
  detector_options.semantics = ConflictSemantics::kTree;
  Optimizer optimizer(detector_options);
  for (int iter = 0; iter < 5; ++iter) {
    const Program program = programs.Generate(&rng);
    TreeStore store(symbols);
    for (const std::string& var : programs.VariableNames()) {
      store.Put(var, trees.Generate(&rng));
    }

    // Baseline run.
    TreeStore baseline_store = store.Clone();
    Result<ExecutionTrace> baseline = Execute(program, &baseline_store);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    // CSE run: node ids must match exactly (no reordering happened).
    const OptimizeResult cse = optimizer.EliminateCommonReads(program);
    TreeStore cse_store = store.Clone();
    Result<ExecutionTrace> cse_trace = Execute(cse.program, &cse_store);
    ASSERT_TRUE(cse_trace.ok());
    ASSERT_EQ(baseline->reads.size(), cse_trace->reads.size());
    for (size_t i = 0; i < baseline->reads.size(); ++i) {
      EXPECT_EQ(baseline->reads[i].nodes, cse_trace->reads[i].nodes)
          << "CSE changed read " << i << "; seed=" << GetParam()
          << "\n" << program.ToString();
    }

    // Reorder run: compare value-level results (ids of freshly inserted
    // nodes may differ across schedules).
    const std::vector<size_t> schedule = optimizer.HoistReadsSchedule(program);
    const Program reordered = Optimizer::Reorder(program, schedule);
    TreeStore reorder_store = store.Clone();
    Result<ExecutionTrace> reorder_trace = Execute(reordered, &reorder_store);
    ASSERT_TRUE(reorder_trace.ok());
    // Match reads by result variable.
    for (const auto& base_read : baseline->reads) {
      bool found = false;
      for (const auto& re_read : reorder_trace->reads) {
        if (re_read.result_var != base_read.result_var) continue;
        found = true;
        EXPECT_EQ(base_read.codes, re_read.codes)
            << "reordering changed the value of " << base_read.result_var
            << "; seed=" << GetParam() << "\n" << program.ToString();
      }
      EXPECT_TRUE(found);
    }
    // Final stores are isomorphic variable by variable.
    for (const std::string& var : programs.VariableNames()) {
      EXPECT_EQ(CanonicalCode(baseline_store.Get(var)),
                CanonicalCode(reorder_store.Get(var)))
          << "final tree for " << var << " differs; seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace xmlup
