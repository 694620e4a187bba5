#include "conflict/conflict_matrix.h"

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class ConflictMatrixTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();

  std::shared_ptr<const Tree> Content(const char* xml) {
    return std::make_shared<const Tree>(Xml(xml, symbols_));
  }

  UpdateOp Insert(const char* xpath, const char* xml) {
    return UpdateOp::MakeInsert(Xp(xpath, symbols_), Content(xml));
  }

  UpdateOp Delete(const char* xpath) {
    Result<UpdateOp> del = UpdateOp::MakeDelete(Xp(xpath, symbols_));
    EXPECT_TRUE(del.ok()) << del.status();
    return std::move(del).value();
  }

  /// Distinct pools the randomized tests draw from — the 12-read/8-update
  /// repertoire of the E12 batch workload.
  std::vector<Pattern> ReadPool() {
    std::vector<Pattern> reads;
    for (const char* x :
         {"a//b", "a/b/c", "a[b]/c", "x//y", "a/*/c", "a[b][c]", "b/c",
          "a[.//d]/b", "a//c", "x/y", "a/b", "*/d"}) {
      reads.push_back(Xp(x, symbols_));
    }
    return reads;
  }

  std::vector<UpdateOp> UpdatePool() {
    std::vector<UpdateOp> updates;
    updates.push_back(Insert("a/b", "<c/>"));
    updates.push_back(Delete("a//c"));
    updates.push_back(Delete("x/y"));
    updates.push_back(Insert("a", "<b><c/></b>"));
    updates.push_back(Insert("b", "<d/>"));
    updates.push_back(Delete("*/d"));
    updates.push_back(Insert("x", "<y/>"));
    updates.push_back(Delete("a/b/c"));
    return updates;
  }

  static BatchDetectorOptions Options(size_t threads) {
    BatchDetectorOptions options;
    options.detector.search.max_nodes = 4;
    options.num_threads = threads;
    return options;
  }

  /// Scheduling-independent cell fingerprint (same fields the batch
  /// detector tests compare: verdict, method, trees_checked).
  static std::vector<std::tuple<int, std::string, uint64_t>> Fingerprint(
      const std::vector<SharedConflictResult>& matrix) {
    std::vector<std::tuple<int, std::string, uint64_t>> out;
    for (const SharedConflictResult& cell : matrix) {
      EXPECT_NE(cell, nullptr);
      if (!cell->ok()) {
        out.emplace_back(-1, cell->status().ToString(), 0);
        continue;
      }
      const ConflictReport& report = **cell;
      out.emplace_back(static_cast<int>(report.verdict),
                       std::string(DetectorMethodName(report.method)),
                       report.trees_checked);
    }
    return out;
  }

  /// The oracle: the maintained matrix must be cell-for-cell equal to a
  /// from-scratch DetectMatrix over its current contents, on a cold engine.
  void ExpectMatchesFromScratch(const MaintainedConflictMatrix& matrix,
                                const std::vector<Pattern>& reads,
                                const std::vector<UpdateOp>& updates) {
    ASSERT_EQ(matrix.num_reads(), reads.size());
    ASSERT_EQ(matrix.num_updates(), updates.size());
    BatchConflictDetector scratch(Options(1));
    EXPECT_EQ(Fingerprint(matrix.RowMajor()),
              Fingerprint(scratch.DetectMatrix(reads, updates)));
  }

  /// K random edits applied in lockstep to a MaintainedConflictMatrix and
  /// to plain read/update vectors, oracle-checked after every edit.
  void RunRandomEditOracle(const BatchDetectorOptions& options, uint64_t seed,
                           int edits) {
    const std::vector<Pattern> read_pool = ReadPool();
    const std::vector<UpdateOp> update_pool = UpdatePool();
    Rng rng(seed);

    MaintainedConflictMatrix matrix(options);
    std::vector<Pattern> reads(read_pool.begin(), read_pool.begin() + 4);
    std::vector<UpdateOp> updates(update_pool.begin(), update_pool.begin() + 3);
    matrix.Assign(reads, updates);
    ExpectMatchesFromScratch(matrix, reads, updates);

    for (int e = 0; e < edits; ++e) {
      // Keep both dimensions non-empty so every edit kind stays available.
      const uint64_t kind = rng.NextBounded(6);
      switch (kind) {
        case 0: {
          const Pattern& read = read_pool[rng.NextBounded(read_pool.size())];
          EXPECT_EQ(matrix.AddRead(read), reads.size());
          reads.push_back(read);
          break;
        }
        case 1: {
          const UpdateOp& update =
              update_pool[rng.NextBounded(update_pool.size())];
          EXPECT_EQ(matrix.AddUpdate(update), updates.size());
          updates.push_back(update);
          break;
        }
        case 2: {
          if (reads.size() <= 1) continue;
          const size_t i = rng.NextBounded(reads.size());
          matrix.RemoveRead(i);
          reads.erase(reads.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
        case 3: {
          if (updates.size() <= 1) continue;
          const size_t j = rng.NextBounded(updates.size());
          matrix.RemoveUpdate(j);
          updates.erase(updates.begin() + static_cast<ptrdiff_t>(j));
          break;
        }
        case 4: {
          const size_t i = rng.NextBounded(reads.size());
          const Pattern& read = read_pool[rng.NextBounded(read_pool.size())];
          matrix.ReplaceRead(i, read);
          reads[i] = read;
          break;
        }
        default: {
          const size_t j = rng.NextBounded(updates.size());
          const UpdateOp& update =
              update_pool[rng.NextBounded(update_pool.size())];
          matrix.ReplaceUpdate(j, update);
          updates[j] = update;
          break;
        }
      }
      ExpectMatchesFromScratch(matrix, reads, updates);
      const BatchStats& stats = matrix.engine().stats();
      EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.pairs_total);
    }
  }
};

TEST_F(ConflictMatrixTest, AssignMatchesDetectMatrix) {
  const std::vector<Pattern> reads = ReadPool();
  const std::vector<UpdateOp> updates = UpdatePool();
  MaintainedConflictMatrix matrix(Options(2));
  matrix.Assign(reads, updates);
  ExpectMatchesFromScratch(matrix, reads, updates);
  // cell() and RowMajor() agree on layout.
  const auto flat = matrix.RowMajor();
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      EXPECT_EQ(matrix.cell(i, j), flat[i * updates.size() + j]);
    }
  }
}

TEST_F(ConflictMatrixTest, RandomEditsMatchFromScratchOneThread) {
  RunRandomEditOracle(Options(1), /*seed=*/7, /*edits=*/24);
}

TEST_F(ConflictMatrixTest, RandomEditsMatchFromScratchEightThreads) {
  RunRandomEditOracle(Options(8), /*seed=*/7, /*edits=*/24);
}

TEST_F(ConflictMatrixTest, DeltaStatsAccountForEveryEdit) {
  MaintainedConflictMatrix matrix(Options(1));
  std::vector<Pattern> reads = {Xp("a//b", symbols_), Xp("b/c", symbols_)};
  std::vector<UpdateOp> updates = {Insert("a/b", "<c/>"), Delete("a//c"),
                                   Delete("x/y")};
  matrix.Assign(reads, updates);  // 2×3
  EXPECT_EQ(matrix.delta_stats().edits, 1u);
  EXPECT_EQ(matrix.delta_stats().cells_recomputed, 6u);
  EXPECT_EQ(matrix.delta_stats().cells_reused, 0u);
  EXPECT_EQ(matrix.delta_stats().cells_dropped, 0u);

  matrix.AddRead(Xp("x//y", symbols_));  // now 3×3: +3 recomputed, 6 reused
  EXPECT_EQ(matrix.delta_stats().edits, 2u);
  EXPECT_EQ(matrix.delta_stats().cells_recomputed, 9u);
  EXPECT_EQ(matrix.delta_stats().cells_reused, 6u);

  matrix.AddUpdate(Insert("b", "<d/>"));  // 3×4: +3 recomputed, 9 reused
  EXPECT_EQ(matrix.delta_stats().cells_recomputed, 12u);
  EXPECT_EQ(matrix.delta_stats().cells_reused, 15u);

  matrix.ReplaceUpdate(1, Delete("*/d"));  // 3 recomputed, 9 reused, 3 dropped
  EXPECT_EQ(matrix.delta_stats().cells_recomputed, 15u);
  EXPECT_EQ(matrix.delta_stats().cells_reused, 24u);
  EXPECT_EQ(matrix.delta_stats().cells_dropped, 3u);

  matrix.RemoveRead(0);  // 2×4 remain: 8 reused, 4 dropped, 0 recomputed
  EXPECT_EQ(matrix.delta_stats().edits, 5u);
  EXPECT_EQ(matrix.delta_stats().cells_recomputed, 15u);
  EXPECT_EQ(matrix.delta_stats().cells_reused, 32u);
  EXPECT_EQ(matrix.delta_stats().cells_dropped, 7u);

  matrix.RemoveUpdate(3);  // 2×3 remain: 6 reused, 2 dropped
  EXPECT_EQ(matrix.delta_stats().cells_reused, 38u);
  EXPECT_EQ(matrix.delta_stats().cells_dropped, 9u);
  ExpectMatchesFromScratch(
      matrix, {Xp("b/c", symbols_), Xp("x//y", symbols_)},
      {Insert("a/b", "<c/>"), Delete("*/d"), Delete("x/y")});
}

TEST_F(ConflictMatrixTest, SingleEditOfLargeMatrixCostsAtMostOneRowOrColumn) {
  // The PR's acceptance criterion: after a single-statement edit of a
  // 64×64 matrix, the engine sees at most max(N, M) = 64 new pair
  // requests (and the recompute delta is exactly one row / column).
  const std::vector<Pattern> read_pool = ReadPool();
  const std::vector<UpdateOp> update_pool = UpdatePool();
  std::vector<Pattern> reads;
  std::vector<UpdateOp> updates;
  for (size_t i = 0; i < 64; ++i) {
    reads.push_back(read_pool[i % read_pool.size()]);
    updates.push_back(update_pool[i % update_pool.size()]);
  }
  MaintainedConflictMatrix matrix(Options(2));
  matrix.Assign(reads, updates);
  ASSERT_EQ(matrix.engine().stats().pairs_total, 64u * 64u);

  const auto edit_cost = [&](auto&& edit) {
    const BatchStats before = matrix.engine().stats();
    const DeltaStats delta_before = matrix.delta_stats();
    edit();
    const BatchStats& after = matrix.engine().stats();
    EXPECT_LE(after.pairs_total - before.pairs_total, 64u);
    // Solves are bounded by the requests (fewer when the slice repeats a
    // pattern: the engine dedups each call).
    EXPECT_LE(after.cache_misses - before.cache_misses, 64u);
    return matrix.delta_stats().cells_recomputed -
           delta_before.cells_recomputed;
  };

  EXPECT_EQ(edit_cost([&] { matrix.ReplaceRead(17, Xp("q//r", symbols_)); }),
            64u);
  EXPECT_EQ(edit_cost([&] { matrix.ReplaceUpdate(40, Insert("q", "<r/>")); }),
            64u);
  EXPECT_EQ(edit_cost([&] { matrix.RemoveRead(5); }), 0u);
  EXPECT_EQ(edit_cost([&] { matrix.AddUpdate(Delete("q//r")); }), 63u);
}

TEST_F(ConflictMatrixTest, SharedEngineReusesStore) {
  auto engine = std::make_shared<BatchConflictDetector>(Options(1));
  MaintainedConflictMatrix first(engine);
  first.Assign(ReadPool(), UpdatePool());
  // A second matrix over the same engine re-interns nothing: the store is
  // shared.
  obs::Counter& misses =
      obs::MetricsRegistry::Default().GetCounter("pattern_store.misses");
  const uint64_t before = misses.value();
  MaintainedConflictMatrix second(engine);
  second.Assign(ReadPool(), UpdatePool());
  EXPECT_EQ(misses.value(), before);
  EXPECT_EQ(first.shared_engine(), second.shared_engine());
  EXPECT_EQ(Fingerprint(first.RowMajor()), Fingerprint(second.RowMajor()));
}

TEST_F(ConflictMatrixTest, ReplacedCellsAreReleased) {
  // Bounded growth: the matrix's cells are the only owners of their
  // reports, so a replaced row's reports die with it.
  MaintainedConflictMatrix matrix(Options(1));
  matrix.Assign({Xp("a//b", symbols_)}, UpdatePool());
  const std::weak_ptr<const Result<ConflictReport>> old_cell =
      matrix.cell(0, 0);
  ASSERT_FALSE(old_cell.expired());
  matrix.ReplaceRead(0, Xp("x//y", symbols_));
  EXPECT_TRUE(old_cell.expired());
}

}  // namespace
}  // namespace xmlup
