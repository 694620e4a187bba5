#include "conflict/batch_detector.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class BatchDetectorTest : public ::testing::Test {
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

  /// A workload mixing linear and branching reads, with repeats — the
  /// shape program generators produce.
  std::vector<Pattern> Reads() {
    std::vector<Pattern> reads;
    for (const char* x : {"a//b", "a/b/c", "a[b]/c", "x//y", "a//b", "a/*/c",
                          "a[b][c]", "a//b", "b/c", "a[.//d]/b"}) {
      reads.push_back(Xp(x, symbols_));
    }
    return reads;
  }

  std::vector<UpdateOp> Updates() {
    std::vector<UpdateOp> updates;
    updates.push_back(Insert("a/b", "<c/>"));
    updates.push_back(Delete("a//c"));
    updates.push_back(Insert("a/b", "<c/>"));  // repeat of [0]
    updates.push_back(Delete("x/y"));
    updates.push_back(Insert("a", "<b><c/></b>"));
    updates.push_back(Delete("a//c"));  // repeat of [1]
    updates.push_back(Insert("b", "<d/>"));
    updates.push_back(Delete("*/d"));
    return updates;
  }

  static BatchDetectorOptions Options(size_t threads, bool cache = true,
                                      bool minimize = true) {
    BatchDetectorOptions options;
    options.detector.search.max_nodes = 4;
    options.num_threads = threads;
    options.enable_cache = cache;
    options.minimize_patterns = minimize;
    return options;
  }

  /// The deterministic fingerprint of a matrix: verdict, method,
  /// trees_checked and the witness's canonical code per cell. Every
  /// witness takes its extra labels from the table's reserved pool, so the
  /// codes do not depend on scheduling.
  using CellPrint = std::tuple<int, std::string, uint64_t, std::string>;
  static std::vector<CellPrint> Fingerprint(
      const std::vector<SharedConflictResult>& matrix) {
    std::vector<CellPrint> out;
    for (const SharedConflictResult& cell : matrix) {
      EXPECT_NE(cell, nullptr);
      if (!cell->ok()) {
        out.emplace_back(-1, cell->status().ToString(), 0, "");
        continue;
      }
      const ConflictReport& report = **cell;
      out.emplace_back(
          static_cast<int>(report.verdict),
          std::string(DetectorMethodName(report.method)), report.trees_checked,
          report.witness.has_value() ? CanonicalCode(*report.witness) : "");
    }
    return out;
  }
};

TEST_F(BatchDetectorTest, MatrixHasRowMajorLayout) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchConflictDetector engine(Options(1));
  const auto matrix = engine.DetectMatrix(reads, updates);
  ASSERT_EQ(matrix.size(), reads.size() * updates.size());
  for (const SharedConflictResult& cell : matrix) {
    ASSERT_NE(cell, nullptr);
    EXPECT_TRUE(cell->ok()) << cell->status();
  }
  EXPECT_EQ(engine.stats().pairs_total, reads.size() * updates.size());
}

TEST_F(BatchDetectorTest, OneThreadAndEightThreadsProduceIdenticalMatrices) {
  // The acceptance-criterion determinism check: same workload, 1 vs 8
  // worker threads, verdict matrices must be identical cell for cell.
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchConflictDetector one(Options(1));
  BatchConflictDetector eight(Options(8));
  const auto fp1 = Fingerprint(one.DetectMatrix(reads, updates));
  const auto fp8 = Fingerprint(eight.DetectMatrix(reads, updates));
  ASSERT_EQ(fp1.size(), fp8.size());
  // The workload has witnesses of more than one method to compare.
  std::set<std::string> witnessed;
  for (const CellPrint& cell : fp1) {
    if (!std::get<3>(cell).empty()) witnessed.insert(std::get<1>(cell));
  }
  EXPECT_EQ(witnessed.size(), 3u);
  for (size_t k = 0; k < fp1.size(); ++k) {
    EXPECT_EQ(fp1[k], fp8[k]) << "cell " << k;
  }
}

TEST_F(BatchDetectorTest, CacheOnAndOffProduceIdenticalVerdicts) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchConflictDetector cached(Options(2, /*cache=*/true));
  BatchConflictDetector uncached(Options(2, /*cache=*/false));
  EXPECT_EQ(Fingerprint(cached.DetectMatrix(reads, updates)),
            Fingerprint(uncached.DetectMatrix(reads, updates)));
}

TEST_F(BatchDetectorTest, CachedResultsMatchFreshSinglePairCalls) {
  // Cross-check every cell (cache hits included) against a fresh
  // single-pair Detect() call. minimize=false so the batch engine solves
  // the very same patterns as the fresh calls.
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  const BatchDetectorOptions options = Options(4, true, /*minimize=*/false);
  BatchConflictDetector engine(options);
  const auto matrix = engine.DetectMatrix(reads, updates);
  ASSERT_GT(engine.stats().cache_hits, 0u);  // workload repeats patterns
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      Result<ConflictReport> fresh =
          Detect(reads[i], updates[j], options.detector);
      const SharedConflictResult& cell = matrix[i * updates.size() + j];
      ASSERT_TRUE(fresh.ok() && cell->ok());
      EXPECT_EQ((*cell)->verdict, fresh->verdict) << "cell " << i << "," << j;
      EXPECT_EQ((*cell)->method, fresh->method) << "cell " << i << "," << j;
      EXPECT_EQ((*cell)->trees_checked, fresh->trees_checked);
    }
  }
}

TEST_F(BatchDetectorTest, CacheAccountingAddsUp) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchConflictDetector engine(Options(2));
  engine.DetectMatrix(reads, updates);
  const BatchStats& stats = engine.stats();
  EXPECT_EQ(stats.pairs_total, reads.size() * updates.size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.pairs_total);
  EXPECT_EQ(stats.cache_misses, stats.unique_pairs_solved);
  // Repeated reads ("a//b" three times) and updates guarantee real reuse.
  EXPECT_LT(stats.unique_pairs_solved, stats.pairs_total);

  // A second identical batch is answered entirely from the cache.
  const uint64_t solved_before = stats.unique_pairs_solved;
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(engine.stats().unique_pairs_solved, solved_before);
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().pairs_total);

  engine.ClearCache();
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(engine.stats().unique_pairs_solved, 2 * solved_before);
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().pairs_total);
}

TEST_F(BatchDetectorTest, CacheDisabledSolvesEveryPair) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchConflictDetector engine(Options(2, /*cache=*/false));
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().cache_misses, reads.size() * updates.size());
  EXPECT_EQ(engine.stats().unique_pairs_solved,
            reads.size() * updates.size());
}

TEST_F(BatchDetectorTest, InlineModeSkipsSpanMergingPooledModeMerges) {
  // With tracing on, a pooled engine publishes worker-buffered spans via
  // one MergeThreadEvents call per batch; an inline engine (num_threads
  // == 1) records directly and must not bump merge_count.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  recorder.Clear();
  recorder.set_enabled(true);
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();

  BatchConflictDetector inline_engine(Options(1));
  inline_engine.DetectMatrix(reads, updates);
  EXPECT_EQ(recorder.merge_count(), 0u);
  // Inline solves still produced per-pair spans, just without merging.
  size_t inline_solve_spans = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (std::string_view(e.name) == "batch.solve_pair") ++inline_solve_spans;
  }
  EXPECT_EQ(inline_solve_spans, inline_engine.stats().unique_pairs_solved);

  BatchConflictDetector pooled(Options(4));
  pooled.DetectMatrix(reads, updates);
  EXPECT_EQ(recorder.merge_count(), 1u);

  recorder.set_enabled(false);
  recorder.Clear();
}

TEST_F(BatchDetectorTest, MinimizationFoldsEquivalentPatternsOntoOneKey) {
  // a[b][b] minimizes to a[b]: the duplicate predicate is implied.
  const UpdateOp update = Insert("a/b", "<c/>");
  BatchConflictDetector engine(Options(1, true, /*minimize=*/true));
  EXPECT_EQ(engine.CacheKey(Xp("a[b][b]", symbols_), update),
            engine.CacheKey(Xp("a[b]", symbols_), update));
  BatchConflictDetector literal(Options(1, true, /*minimize=*/false));
  EXPECT_NE(literal.CacheKey(Xp("a[b][b]", symbols_), update),
            literal.CacheKey(Xp("a[b]", symbols_), update));

  // Sibling order never matters: the key is canonical.
  EXPECT_EQ(engine.CacheKey(Xp("a[b][c]", symbols_), update),
            engine.CacheKey(Xp("a[c][b]", symbols_), update));
}

TEST_F(BatchDetectorTest, SparsePairsAlignWithRequest) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  const std::vector<ReadUpdatePair> pairs = {
      {0, 1}, {3, 3}, {0, 1}, {9, 4}};
  BatchConflictDetector engine(Options(2));
  const auto sparse = engine.DetectPairs(reads, updates, pairs);
  ASSERT_EQ(sparse.size(), pairs.size());
  // Duplicate request resolves to the shared cached object.
  EXPECT_EQ(sparse[0], sparse[2]);
  const auto full = engine.DetectMatrix(reads, updates);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto& cell =
        full[pairs[k].read_index * updates.size() + pairs[k].update_index];
    ASSERT_TRUE(sparse[k]->ok() && cell->ok());
    EXPECT_EQ((*sparse[k])->verdict, (*cell)->verdict) << "pair " << k;
  }
}

TEST_F(BatchDetectorTest, InterningIsPerPatternNotPerPair) {
  // The PR's acceptance signal: canonicalization cost scales with the
  // number of *distinct patterns*, never with the number of pairs. The
  // store counts one miss per distinct pattern/content and the second
  // identical matrix re-interns everything as hits.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& misses = reg.GetCounter("pattern_store.misses");
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  const size_t pairs = reads.size() * updates.size();
  // Distinct inputs: 8 read patterns, 6 update patterns, 3 insert contents
  // (minimization can only merge further).
  const size_t distinct_inputs = 8 + 6 + 3;

  BatchConflictDetector engine(Options(2));
  const uint64_t before = misses.value();
  engine.DetectMatrix(reads, updates);
  const uint64_t first_call = misses.value() - before;
  EXPECT_GT(first_call, 0u);
  EXPECT_LE(first_call, distinct_inputs);
  EXPECT_LT(first_call, pairs);
  EXPECT_GE(first_call, engine.pattern_store()->size());

  // Warm store: zero misses no matter how many pairs the call asks for.
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(misses.value() - before, first_call);
}

TEST_F(BatchDetectorTest, InjectedStoreIsSharedAndRefOverloadsAgree) {
  auto store = std::make_shared<PatternStore>(symbols_);
  BatchDetectorOptions options = Options(2);
  options.store = store;
  BatchConflictDetector engine(options);
  ASSERT_EQ(engine.pattern_store(), store);

  const std::vector<Pattern> reads = Reads();
  std::vector<UpdateOp> updates;
  for (const UpdateOp& op : Updates()) updates.push_back(op.Bind(store));
  std::vector<PatternRef> read_refs;
  for (const Pattern& read : reads) read_refs.push_back(store->Intern(read));

  const auto by_value = engine.DetectMatrix(reads, Updates());
  const auto by_ref = engine.DetectMatrix(read_refs, updates);
  EXPECT_EQ(Fingerprint(by_value), Fingerprint(by_ref));
  // Identical canonical pairs resolve to the very same shared result.
  for (size_t k = 0; k < by_value.size(); ++k) {
    EXPECT_EQ(by_value[k], by_ref[k]) << "cell " << k;
  }

  // A second engine over the same store reuses the interned patterns (no
  // new misses) while keeping its own result cache.
  obs::Counter& misses =
      obs::MetricsRegistry::Default().GetCounter("pattern_store.misses");
  const uint64_t before = misses.value();
  BatchConflictDetector sibling(options);
  const auto sibling_matrix = sibling.DetectMatrix(read_refs, updates);
  EXPECT_EQ(misses.value(), before);
  EXPECT_EQ(Fingerprint(sibling_matrix), Fingerprint(by_ref));
}

TEST_F(BatchDetectorTest, BoundedCacheEvictsButNeverChangesVerdicts) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchDetectorOptions options = Options(2);
  options.max_cache_entries = 4;
  BatchConflictDetector bounded(options);
  BatchConflictDetector unbounded(Options(2));
  EXPECT_EQ(Fingerprint(bounded.DetectMatrix(reads, updates)),
            Fingerprint(unbounded.DetectMatrix(reads, updates)));
  const BatchStats& stats = bounded.stats();
  EXPECT_LE(bounded.cache_size(), 4u);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.cache_evictions,
            stats.unique_pairs_solved - bounded.cache_size());
  // Eviction does not disturb the accounting invariant.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.pairs_total);

  // A repeat call re-solves what was evicted — and only that.
  const uint64_t solved_before = stats.unique_pairs_solved;
  bounded.DetectMatrix(reads, updates);
  EXPECT_GT(bounded.stats().unique_pairs_solved, solved_before);
  EXPECT_EQ(bounded.stats().cache_hits + bounded.stats().cache_misses,
            bounded.stats().pairs_total);
  EXPECT_LE(bounded.cache_size(), 4u);
}

TEST_F(BatchDetectorTest, EvictionIsLeastRecentlyUsedByGeneration) {
  // num_threads == 1: the intern order (hence key identity) is sequential
  // and the LRU decisions below are exact.
  BatchDetectorOptions options = Options(1);
  options.max_cache_entries = 2;
  BatchConflictDetector engine(options);
  const std::vector<Pattern> reads = {Xp("a//b", symbols_),
                                      Xp("b/c", symbols_),
                                      Xp("x//y", symbols_)};
  std::vector<UpdateOp> updates;
  updates.push_back(Insert("a/b", "<c/>"));
  auto pairs_for = [&](std::vector<size_t> read_idx) {
    std::vector<ReadUpdatePair> pairs;
    for (size_t i : read_idx) pairs.push_back({i, 0});
    return pairs;
  };

  // Gen 1 caches {r0, r1}; gen 2 refreshes r0's stamp; gen 3 brings in r2,
  // which must evict r1 (oldest stamp), not r0.
  engine.DetectPairs(reads, updates, pairs_for({0, 1}));
  engine.DetectPairs(reads, updates, pairs_for({0}));
  engine.DetectPairs(reads, updates, pairs_for({2}));
  EXPECT_EQ(engine.stats().cache_evictions, 1u);
  EXPECT_EQ(engine.cache_size(), 2u);

  const uint64_t hits_before = engine.stats().cache_hits;
  const uint64_t solved_before = engine.stats().unique_pairs_solved;
  engine.DetectPairs(reads, updates, pairs_for({0}));  // survived: hit
  EXPECT_EQ(engine.stats().cache_hits, hits_before + 1);
  EXPECT_EQ(engine.stats().unique_pairs_solved, solved_before);
  engine.DetectPairs(reads, updates, pairs_for({1}));  // evicted: re-solved
  EXPECT_EQ(engine.stats().unique_pairs_solved, solved_before + 1);
}

TEST_F(BatchDetectorTest, SameGenerationEvictionTieBreaksOnKeyOrder) {
  // All three entries share one generation: the policy must still be
  // deterministic, dropping the lowest-id keys first (interned first ==
  // listed first at num_threads == 1).
  BatchDetectorOptions options = Options(1);
  options.max_cache_entries = 1;
  BatchConflictDetector engine(options);
  const std::vector<Pattern> reads = {Xp("a//b", symbols_),
                                      Xp("b/c", symbols_),
                                      Xp("x//y", symbols_)};
  std::vector<UpdateOp> updates;
  updates.push_back(Delete("a//c"));
  engine.DetectPairs(reads, updates, {{0, 0}, {1, 0}, {2, 0}});
  EXPECT_EQ(engine.stats().cache_evictions, 2u);
  EXPECT_EQ(engine.cache_size(), 1u);
  // The highest-id key (the last read) is the survivor.
  const uint64_t solved_before = engine.stats().unique_pairs_solved;
  engine.DetectPairs(reads, updates, {{2, 0}});
  EXPECT_EQ(engine.stats().unique_pairs_solved, solved_before);
  engine.DetectPairs(reads, updates, {{0, 0}});
  EXPECT_EQ(engine.stats().unique_pairs_solved, solved_before + 1);
}

TEST_F(BatchDetectorTest, KnownVerdictsSurviveTheBatchPath) {
  // a//b vs insert <b/> under a: conflict (linear PTIME path).
  // x//y vs delete a//c: different labels, no conflict.
  std::vector<Pattern> reads = {Xp("a//b", symbols_), Xp("x//y", symbols_)};
  std::vector<UpdateOp> updates;
  updates.push_back(Insert("a", "<b/>"));
  BatchConflictDetector engine(Options(2));
  const auto matrix = engine.DetectMatrix(reads, updates);
  ASSERT_TRUE(matrix[0]->ok());
  EXPECT_EQ((*matrix[0])->verdict, ConflictVerdict::kConflict);
  EXPECT_TRUE((*matrix[0])->witness.has_value());
  ASSERT_TRUE(matrix[1]->ok());
  EXPECT_EQ((*matrix[1])->verdict, ConflictVerdict::kNoConflict);
}

}  // namespace
}  // namespace xmlup
