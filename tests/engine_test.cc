#include "engine/engine.h"

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "conflict/detector.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xmlup {
namespace {

using testing_util::Xml;
using testing_util::Xp;

class EngineTest : public ::testing::Test {
 protected:
  Engine engine_;

  Pattern P(std::string_view xpath) { return Xp(xpath, engine_.symbols()); }
  std::shared_ptr<const Tree> Content(std::string_view xml) {
    return std::make_shared<const Tree>(Xml(xml, engine_.symbols()));
  }
};

TEST_F(EngineTest, InternDeduplicatesEquivalentPatterns) {
  const PatternRef a = engine_.Intern(P("a/b"));
  const PatternRef b = engine_.Intern(P("a/b"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, engine_.Intern(P("a/c")));
  EXPECT_EQ(engine_.pattern(a).size(), 2u);
}

TEST_F(EngineTest, InternXPathParsesAgainstEngineSymbols) {
  Result<PatternRef> ref = engine_.InternXPath("book[.//quantity]");
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(*ref, engine_.Intern(P("book[.//quantity]")));
  EXPECT_FALSE(engine_.InternXPath("a[").ok());
}

TEST_F(EngineTest, DetectMatchesFreeDetectorOnBothOverloads) {
  const Pattern read = P("a/b");
  const UpdateOp update = *UpdateOp::MakeDelete(P("a/b"));

  Result<ConflictReport> via_free = Detect(read, update);
  Result<ConflictReport> via_pattern = engine_.Detect(read, update);
  Result<ConflictReport> via_ref =
      engine_.Detect(engine_.Intern(read), engine_.Bind(update));
  ASSERT_TRUE(via_free.ok());
  ASSERT_TRUE(via_pattern.ok());
  ASSERT_TRUE(via_ref.ok());
  EXPECT_EQ(via_pattern->verdict, via_free->verdict);
  EXPECT_EQ(via_ref->verdict, via_free->verdict);
  EXPECT_EQ(via_ref->verdict, ConflictVerdict::kConflict);

  // A non-overlapping pair is a no-conflict on every path.
  const UpdateOp other = *UpdateOp::MakeDelete(P("c/d"));
  EXPECT_EQ(engine_.Detect(engine_.Intern(read), engine_.Bind(other))->verdict,
            ConflictVerdict::kNoConflict);
}

TEST_F(EngineTest, DetectMatrixMatchesSingletonDetects) {
  const std::vector<Pattern> reads = {P("a/b"), P("a//c")};
  const std::vector<UpdateOp> updates = {
      UpdateOp::MakeInsert(P("a"), Content("<b/>")),
      *UpdateOp::MakeDelete(P("a/b"))};
  const std::vector<SharedConflictResult> matrix =
      engine_.DetectMatrix(reads, updates);
  ASSERT_EQ(matrix.size(), 4u);
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      const SharedConflictResult& cell = matrix[i * updates.size() + j];
      ASSERT_TRUE(cell->ok());
      Result<ConflictReport> singleton = engine_.Detect(reads[i], updates[j]);
      ASSERT_TRUE(singleton.ok());
      EXPECT_EQ((*cell)->verdict, singleton->verdict) << i << "," << j;
    }
  }
}

TEST_F(EngineTest, MatrixCellsAreTheOnlyOwnersOfTheirReports) {
  // Bounded growth: the engine keeps nothing between calls, so once
  // DetectMatrix returns, the cells hold every reference to their reports.
  // Repeated reads and updates make identical pairs share one report.
  const std::vector<Pattern> reads = {P("a/b"), P("a//c"), P("a/b")};
  const std::vector<UpdateOp> updates = {
      UpdateOp::MakeInsert(P("a"), Content("<b/>")),
      *UpdateOp::MakeDelete(P("a/b")),
      UpdateOp::MakeInsert(P("a"), Content("<b/>"))};
  const std::vector<SharedConflictResult> matrix =
      engine_.DetectMatrix(reads, updates);
  std::map<const Result<ConflictReport>*, long> holders;
  for (const SharedConflictResult& cell : matrix) ++holders[cell.get()];
  ASSERT_LT(holders.size(), matrix.size());
  for (const SharedConflictResult& cell : matrix) {
    EXPECT_EQ(cell.use_count(), holders[cell.get()]);
  }
}

TEST_F(EngineTest, CertifyCommuteAgreesWithFreeFunction) {
  const UpdateOp a = UpdateOp::MakeInsert(P("a"), Content("<x/>"));
  const UpdateOp b = *UpdateOp::MakeDelete(P("b/c"));
  Result<IndependenceReport> via_engine = engine_.CertifyCommute(a, b);
  Result<IndependenceReport> via_free = CertifyUpdatesCommute(a, b);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(via_free.ok());
  EXPECT_EQ(via_engine->certificate, via_free->certificate);
}

TEST_F(EngineTest, SessionsShareTheEngineStore) {
  std::unique_ptr<Engine::Session> session = engine_.MakeSession();
  EXPECT_EQ(session->matrix().engine().pattern_store(), engine_.store());

  session->matrix().Assign({P("a/b")}, {*UpdateOp::MakeDelete(P("a/b"))});
  EXPECT_EQ(session->matrix().cell(0, 0)->value().verdict,
            ConflictVerdict::kConflict);
  // An edit recomputes one slice, visible through row().
  session->matrix().ReplaceRead(0, P("x/y"));
  EXPECT_EQ(session->matrix().row(0)[0]->value().verdict,
            ConflictVerdict::kNoConflict);
}

TEST_F(EngineTest, DistinctSessionsAreIndependentWriters) {
  std::unique_ptr<Engine::Session> s1 = engine_.MakeSession();
  std::unique_ptr<Engine::Session> s2 = engine_.MakeSession();
  s1->matrix().Assign({P("a/b")}, {*UpdateOp::MakeDelete(P("a/b"))});
  s2->matrix().Assign({P("a/b"), P("c")}, {*UpdateOp::MakeDelete(P("c/d"))});
  EXPECT_EQ(s1->matrix().num_reads(), 1u);
  EXPECT_EQ(s2->matrix().num_reads(), 2u);
  s1->matrix().RemoveRead(0);
  EXPECT_EQ(s1->matrix().num_reads(), 0u);
  EXPECT_EQ(s2->matrix().num_reads(), 2u);
}

TEST_F(EngineTest, LintRunsUnderEngineConfiguration) {
  Program program;
  program.AddRead("y", "x", P("a/b"));
  program.AddRead("y", "x", P("a/b"));  // dead read
  const LintResult result = engine_.Lint(program);
  bool saw_dead_read = false;
  for (const auto& diagnostic : result.diagnostics) {
    saw_dead_read =
        saw_dead_read || diagnostic.rule == LintRule::kDeadRead;
  }
  EXPECT_TRUE(saw_dead_read);

  Engine::LintRunOptions no_partition;
  no_partition.partition = false;
  const LintResult unpartitioned = engine_.Lint(program, no_partition);
  for (const auto& diagnostic : unpartitioned.diagnostics) {
    EXPECT_NE(diagnostic.rule, LintRule::kParallelPartition);
  }
}

TEST_F(EngineTest, AnalyzeDependencesFindsConflictingPair) {
  Program program;
  program.AddRead("y", "x", P("a/b"));
  program.AddDelete("x", P("a/b"));
  const DependenceAnalysisResult result = engine_.AnalyzeDependences(program);
  EXPECT_EQ(result.pairs_total, 1u);
  ASSERT_EQ(result.dependences.size(), 1u);
}

TEST_F(EngineTest, SharedSymbolTableAcrossEngines) {
  auto symbols = std::make_shared<SymbolTable>();
  EngineOptions tree_semantics;
  tree_semantics.batch.detector.semantics = ConflictSemantics::kTree;
  Engine a(symbols, tree_semantics);
  Engine b(symbols, EngineOptions{});
  EXPECT_EQ(a.symbols(), b.symbols());
  // Distinct engines, distinct stores: each owns its configuration.
  EXPECT_NE(a.store(), b.store());
  const Pattern p = Xp("a/b", symbols);
  EXPECT_EQ(a.pattern(a.Intern(p)).size(), b.pattern(b.Intern(p)).size());
}

TEST_F(EngineTest, ConcurrentDetectCallsAreSafe) {
  // The facade's documented hot path: many threads calling Detect against
  // the shared store concurrently (each worker also interns).
  const PatternRef read = engine_.Intern(P("a/b"));
  const UpdateOp del = engine_.Bind(*UpdateOp::MakeDelete(P("a/b")));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<int> conflicts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Result<ConflictReport> r = engine_.Detect(read, del);
        if (r.ok() && r->verdict == ConflictVerdict::kConflict) {
          ++conflicts[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(conflicts[t], kOpsPerThread);
}

TEST_F(EngineTest, BatchStatsAndMetricsAreReachable) {
  engine_.DetectMatrix({P("a/b")}, std::vector<UpdateOp>{
                                       *UpdateOp::MakeDelete(P("a/b"))});
  EXPECT_GE(engine_.batch_stats().pairs_total, 1u);
  const obs::MetricsSnapshot snapshot = engine_.MetricsSnapshot();
  EXPECT_FALSE(snapshot.counters.empty());
}

using EngineDeathTest = EngineTest;

TEST_F(EngineDeathTest, SerializedEntryPointsRejectPoolWorkerReentrancy) {
  // Calling a serialized entry point from inside a ThreadPool worker can
  // deadlock the pool (the call blocks the worker on work only workers
  // can drain), so the facade CHECK-fails instead of hanging. The death
  // test pins the crash-with-message behavior; "threadsafe" style because
  // the statement spawns threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Pattern> reads = {P("a/b")};
  const std::vector<UpdateOp> updates = {*UpdateOp::MakeDelete(P("a/b"))};
  EXPECT_DEATH(
      {
        ThreadPool pool(2);  // >= 2: inline mode has no workers
        pool.Submit([&] { engine_.DetectMatrix(reads, updates); });
        pool.Wait();
      },
      "called from inside a ThreadPool worker");
  // The same call from a non-worker thread (this one) stays legal.
  EXPECT_EQ(engine_.DetectMatrix(reads, updates).size(), 1u);
}

}  // namespace
}  // namespace xmlup
