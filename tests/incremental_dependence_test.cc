#include "analysis/incremental_dependence.h"

#include <memory>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class IncrementalDependenceTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::shared_ptr<const Tree> Content(const char* xml) {
    return std::make_shared<const Tree>(Xml(xml, symbols_));
  }

  Statement Read(const char* var, const char* xpath) {
    return Statement(Statement::Kind::kRead, var, "y", Xp(xpath, symbols_),
                     nullptr);
  }

  Statement Insert(const char* var, const char* xpath, const char* xml) {
    return Statement(Statement::Kind::kInsert, var, "", Xp(xpath, symbols_),
                     Content(xml));
  }

  Statement Delete(const char* var, const char* xpath) {
    return Statement(Statement::Kind::kDelete, var, "", Xp(xpath, symbols_),
                     nullptr);
  }

  static BatchDetectorOptions Options(size_t threads) {
    BatchDetectorOptions options;
    options.detector.search.max_nodes = 4;
    options.num_threads = threads;
    return options;
  }

  static Program ToProgram(const std::vector<Statement>& stmts) {
    Program program;
    program.mutable_statements() = stmts;
    return program;
  }

  /// (from, to, reason) triples — the deterministic dependence fingerprint.
  static std::vector<std::tuple<size_t, size_t, std::string>> Edges(
      const DependenceAnalysisResult& result) {
    std::vector<std::tuple<size_t, size_t, std::string>> out;
    for (const Dependence& d : result.dependences) {
      out.emplace_back(d.from, d.to, d.reason);
    }
    return out;
  }

  /// The oracle: the incremental analyzer must agree with a fresh
  /// DependenceAnalyzer over the equivalent Program, edge for edge.
  void ExpectMatchesBatchAnalyzer(
      const IncrementalDependenceAnalyzer& analyzer,
      const std::vector<Statement>& stmts) {
    ASSERT_EQ(analyzer.size(), stmts.size());
    DependenceAnalyzer scratch(Options(1));
    const DependenceAnalysisResult fresh = scratch.Analyze(ToProgram(stmts));
    const DependenceAnalysisResult incremental = analyzer.Analyze();
    EXPECT_EQ(Edges(incremental), Edges(fresh));
    EXPECT_EQ(incremental.pairs_total, fresh.pairs_total);
    EXPECT_EQ(incremental.pairs_independent, fresh.pairs_independent);
  }

  /// Statement pool over two variables, mixing reads, inserts, deletes and
  /// malformed updates: a root-selecting delete and inserts with null or
  /// rootless content.
  std::vector<Statement> Pool() {
    return {
        Read("x", "a//b"),         Read("x", "a/b/c"),
        Read("x", "x//C"),         Read("v", "a//b"),
        Insert("x", "a/b", "<c/>"), Insert("x", "a", "<b><c/></b>"),
        Insert("v", "a/b", "<c/>"), Delete("x", "a//c"),
        Delete("x", "a/zzz"),      Delete("v", "b/c"),
        Delete("x", "a"),  // malformed: selects the root
        Statement(Statement::Kind::kInsert, "x", "", Xp("a/b", symbols_),
                  nullptr),  // malformed: no content
        Statement(Statement::Kind::kInsert, "v", "", Xp("a", symbols_),
                  std::make_shared<const Tree>(symbols_)),  // rootless
    };
  }
};

TEST_F(IncrementalDependenceTest, SetProgramMatchesBatchAnalyzer) {
  // Multi-variable program with read/read, read/update, update/update and
  // malformed-delete pairs — every classification branch at once.
  const std::vector<Statement> stmts = Pool();
  IncrementalDependenceAnalyzer analyzer(Options(2));
  analyzer.SetProgram(ToProgram(stmts));
  ExpectMatchesBatchAnalyzer(analyzer, stmts);
}

TEST_F(IncrementalDependenceTest, LoneNullContentInsertIsModeledMalformed) {
  std::vector<Statement> stmts = {Statement(
      Statement::Kind::kInsert, "x", "", Xp("a", symbols_), nullptr)};
  IncrementalDependenceAnalyzer analyzer(Options(1));
  analyzer.SetProgram(ToProgram(stmts));
  EXPECT_EQ(analyzer.matrix().num_updates(), 0u);
  ExpectMatchesBatchAnalyzer(analyzer, stmts);

  // Against a read on its variable it is a dependence, not a matrix cell.
  analyzer.InsertStatement(1, Read("x", "a/b"));
  stmts.push_back(Read("x", "a/b"));
  ExpectMatchesBatchAnalyzer(analyzer, stmts);
  EXPECT_EQ(analyzer.Analyze().dependences.size(), 1u);
}

TEST_F(IncrementalDependenceTest, PaperExampleDependences) {
  // §1: insert $x/B, <C/> makes a later read $x//C dependent while a read
  // $x//D stays free.
  std::vector<Statement> stmts = {Insert("x", "x/B", "<C/>"),
                                  Read("x", "x//C"), Read("x", "x//D")};
  IncrementalDependenceAnalyzer analyzer(Options(1));
  analyzer.SetProgram(ToProgram(stmts));
  const DependenceAnalysisResult result = analyzer.Analyze();
  ASSERT_EQ(result.dependences.size(), 1u);
  EXPECT_EQ(result.dependences[0].from, 0u);
  EXPECT_EQ(result.dependences[0].to, 1u);

  // Removing the insert frees everything.
  analyzer.RemoveStatement(0);
  EXPECT_TRUE(analyzer.Analyze().dependences.empty());
  EXPECT_EQ(analyzer.IndependentPairs(),
            (std::vector<std::pair<size_t, size_t>>{{0, 1}}));
}

TEST_F(IncrementalDependenceTest, RandomEditsMatchBatchAnalyzer) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    const std::vector<Statement> pool = Pool();
    Rng rng(13);
    IncrementalDependenceAnalyzer analyzer(Options(threads));
    std::vector<Statement> stmts(pool.begin(), pool.begin() + 5);
    analyzer.SetProgram(ToProgram(stmts));
    ExpectMatchesBatchAnalyzer(analyzer, stmts);
    for (int e = 0; e < 20; ++e) {
      const uint64_t kind = rng.NextBounded(3);
      if (kind == 0 || stmts.empty()) {
        const size_t at = rng.NextBounded(stmts.size() + 1);
        const Statement& stmt = pool[rng.NextBounded(pool.size())];
        analyzer.InsertStatement(at, stmt);
        stmts.insert(stmts.begin() + static_cast<ptrdiff_t>(at), stmt);
      } else if (kind == 1) {
        const size_t at = rng.NextBounded(stmts.size());
        analyzer.RemoveStatement(at);
        stmts.erase(stmts.begin() + static_cast<ptrdiff_t>(at));
      } else {
        const size_t at = rng.NextBounded(stmts.size());
        const Statement& stmt = pool[rng.NextBounded(pool.size())];
        analyzer.ReplaceStatement(at, stmt);
        stmts[at] = stmt;
      }
      ExpectMatchesBatchAnalyzer(analyzer, stmts);
    }
  }
}

TEST_F(IncrementalDependenceTest, ReplaceAcrossKindsKeepsSlotsConsistent) {
  // read → insert → malformed delete → read again, through every slot
  // transition, oracle-checked each step.
  std::vector<Statement> stmts = {Read("x", "a//b"), Insert("x", "a", "<b/>"),
                                  Delete("x", "a//c")};
  IncrementalDependenceAnalyzer analyzer(Options(1));
  analyzer.SetProgram(ToProgram(stmts));

  const auto replace = [&](size_t at, const Statement& stmt) {
    analyzer.ReplaceStatement(at, stmt);
    stmts[at] = stmt;
    ExpectMatchesBatchAnalyzer(analyzer, stmts);
  };
  replace(0, Insert("x", "a/b", "<c/>"));  // read → update
  replace(0, Delete("x", "a"));            // update → malformed update
  replace(0, Delete("x", "a//c"));         // malformed → well-formed
  replace(0, Read("x", "x//C"));           // update → read
  replace(2, Read("x", "a/b/c"));          // delete → read
  replace(2, Read("v", "a/b/c"));          // variable change
}

TEST_F(IncrementalDependenceTest, SingleEditOfLargeProgramIsRowOrColumnWork) {
  // Acceptance criterion at the analysis layer: one statement edit of a
  // 64-read/64-update program costs at most max(N, M) = 64 new batch-pair
  // requests (update/update certificates are memoized separately and
  // re-certify at most the edited statement's pairs).
  std::vector<Statement> stmts;
  const std::vector<Statement> pool = Pool();
  for (size_t i = 0; i < 64; ++i) {
    stmts.push_back(pool[i % 4 == 3 ? 3 : i % 3]);            // reads
    stmts.push_back(pool[4 + (i % 6)]);                        // updates
  }
  IncrementalDependenceAnalyzer analyzer(Options(2));
  analyzer.SetProgram(ToProgram(stmts));
  ASSERT_EQ(analyzer.matrix().num_reads(), 64u);
  ASSERT_EQ(analyzer.matrix().num_updates(), 64u);

  const BatchStats before = analyzer.matrix().engine().stats();
  analyzer.ReplaceStatement(0, Read("x", "q//r"));
  const BatchStats& after_read = analyzer.matrix().engine().stats();
  EXPECT_LE(after_read.pairs_total - before.pairs_total, 64u);

  analyzer.ReplaceStatement(1, Delete("x", "q//r"));
  const BatchStats& after_update = analyzer.matrix().engine().stats();
  EXPECT_LE(after_update.pairs_total - after_read.pairs_total, 64u);

  analyzer.RemoveStatement(2);
  const BatchStats& after_remove = analyzer.matrix().engine().stats();
  EXPECT_EQ(after_remove.pairs_total, after_update.pairs_total);
}

TEST_F(IncrementalDependenceTest, IndependentPairsComplementDependences) {
  const std::vector<Statement> stmts = Pool();
  IncrementalDependenceAnalyzer analyzer(Options(2));
  analyzer.SetProgram(ToProgram(stmts));
  const DependenceAnalysisResult result = analyzer.Analyze();
  const auto independent = analyzer.IndependentPairs();
  EXPECT_EQ(independent.size(), result.pairs_independent);
  EXPECT_EQ(independent.size() + result.dependences.size(),
            result.pairs_total);
  std::vector<bool> dependent(stmts.size() * stmts.size(), false);
  for (const Dependence& d : result.dependences) {
    dependent[d.from * stmts.size() + d.to] = true;
  }
  for (const auto& [i, j] : independent) {
    EXPECT_LT(i, j);
    EXPECT_FALSE(dependent[i * stmts.size() + j]);
  }
}

}  // namespace
}  // namespace xmlup
