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

  static BatchDetectorOptions Options(size_t threads) {
    BatchDetectorOptions options;
    options.detector.search.max_nodes = 4;
    options.num_threads = threads;
    return options;
  }

  /// A store that keeps patterns exactly as given (no minimization).
  std::shared_ptr<PatternStore> LiteralStore() {
    return std::make_shared<PatternStore>(
        symbols_, PatternStoreOptions{.minimize = false});
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
  std::vector<Pattern> reads = Reads();
  std::vector<UpdateOp> updates = Updates();
  // a[.//c] against a delete of a/b[c] is a conflict only the bounded
  // search witnesses, so the comparison covers the search too.
  reads.push_back(Xp("a[.//c]", symbols_));
  updates.push_back(Delete("a/b[c]"));
  BatchConflictDetector one(Options(1));
  BatchConflictDetector eight(Options(8));
  const auto fp1 = Fingerprint(one.DetectMatrix(reads, updates));
  const auto fp8 = Fingerprint(eight.DetectMatrix(reads, updates));
  ASSERT_EQ(fp1.size(), fp8.size());
  // The workload has witnesses of every witnessing method to compare.
  std::set<std::string> witnessed;
  for (const CellPrint& cell : fp1) {
    if (!std::get<3>(cell).empty()) witnessed.insert(std::get<1>(cell));
  }
  EXPECT_EQ(witnessed,
            (std::set<std::string>{"linear-ptime", "mainline-heuristic",
                                   "leaf-path-witness", "bounded-search"}));
  for (size_t k = 0; k < fp1.size(); ++k) {
    EXPECT_EQ(fp1[k], fp8[k]) << "cell " << k;
  }
}

TEST_F(BatchDetectorTest, CachedResultsMatchFreshSinglePairCalls) {
  // Cross-check every cell (deduped pairs included) against a fresh
  // single-pair Detect() call. A literal store, so the batch engine solves
  // the very same patterns as the fresh calls.
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  BatchDetectorOptions options = Options(4);
  options.store = LiteralStore();
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
  // Repeated reads ("a//b" three times) and updates guarantee real reuse
  // inside the one call.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_LT(stats.cache_misses, stats.pairs_total);

  // Nothing is kept between calls: a second identical call solves every
  // distinct pair again, with the same split.
  const BatchStats first = stats;
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(engine.stats().cache_misses, 2 * first.cache_misses);
  EXPECT_EQ(engine.stats().cache_hits, 2 * first.cache_hits);
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().cache_misses,
            engine.stats().pairs_total);
}

TEST_F(BatchDetectorTest, EveryJobRecordsOneSpanAtAnyThreadCount) {
  // With tracing on, each solved job opens one batch.solve_pair span,
  // whether it runs on the calling thread or on a pool worker.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  recorder.set_enabled(true);
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();

  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    recorder.Clear();
    BatchConflictDetector engine(Options(threads));
    engine.DetectMatrix(reads, updates);
    size_t solve_spans = 0;
    for (const obs::TraceEvent& e : recorder.Snapshot()) {
      if (std::string_view(e.name) == "batch.solve_pair") ++solve_spans;
    }
    EXPECT_GT(solve_spans, 0u);
    EXPECT_EQ(solve_spans, engine.stats().cache_misses);
  }

  recorder.set_enabled(false);
  recorder.Clear();
}

TEST_F(BatchDetectorTest, MinimizationFoldsEquivalentPatternsOntoOneKey) {
  // a[b][b] minimizes to a[b]: the duplicate predicate is implied. A
  // private store minimizes; an injected literal store keeps both forms.
  BatchConflictDetector engine(Options(1));
  PatternStore& minimizing = *engine.pattern_store();
  EXPECT_EQ(minimizing.Intern(Xp("a[b][b]", symbols_)),
            minimizing.Intern(Xp("a[b]", symbols_)));
  BatchDetectorOptions literal_options = Options(1);
  literal_options.store = LiteralStore();
  BatchConflictDetector literal(literal_options);
  EXPECT_NE(literal.pattern_store()->Intern(Xp("a[b][b]", symbols_)),
            literal.pattern_store()->Intern(Xp("a[b]", symbols_)));

  // Sibling order never matters: the ref is canonical.
  EXPECT_EQ(minimizing.Intern(Xp("a[b][c]", symbols_)),
            minimizing.Intern(Xp("a[c][b]", symbols_)));

  // Equal refs are one dedup key: the folded pair is solved once.
  const std::vector<Pattern> reads = {Xp("a[b][b]", symbols_),
                                      Xp("a[b]", symbols_)};
  const std::vector<UpdateOp> updates = {Insert("a/b", "<c/>")};
  engine.DetectMatrix(reads, updates);
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  literal.DetectMatrix(reads, updates);
  EXPECT_EQ(literal.stats().cache_misses, 2u);
}

TEST_F(BatchDetectorTest, SparsePairsAlignWithRequest) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  const std::vector<ReadUpdatePair> pairs = {
      {0, 1}, {3, 3}, {0, 1}, {9, 4}};
  BatchConflictDetector engine(Options(2));
  const auto sparse = engine.DetectPairs(reads, updates, pairs);
  ASSERT_EQ(sparse.size(), pairs.size());
  // A duplicate request in one call resolves to the shared object.
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

  // A second engine over the same store reuses the interned patterns (no
  // new misses).
  obs::Counter& misses =
      obs::MetricsRegistry::Default().GetCounter("pattern_store.misses");
  const uint64_t before = misses.value();
  BatchConflictDetector sibling(options);
  const auto sibling_matrix = sibling.DetectMatrix(read_refs, updates);
  EXPECT_EQ(misses.value(), before);
  EXPECT_EQ(Fingerprint(sibling_matrix), Fingerprint(by_ref));
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
