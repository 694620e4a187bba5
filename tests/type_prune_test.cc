// Stage 0 of the staged verdict pipeline must be invisible except for
// speed and schema-soundness: a type-pruned pair may only be one that has
// no conflict witness among DTD-conformant documents, and a pair Stage 0
// does not prune must produce a report field-identical to the pre-Stage-0
// detector's. This suite covers the TypeSet lattice, the summary
// computation, the two pruning rules and their deliberate asymmetries, the
// facade/batch/engine integration (accounting invariants, one Stage 0 in
// the Detect facade, schemas on a foreign SymbolTable rejected),
// determinism across thread counts on a shared store (the TSan leg), and
// an exhaustive small-pattern sweep checked against the conformant-tree
// oracles in dtd/dtd_conflict.h.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conflict/batch_detector.h"
#include "conflict/detector.h"
#include "dtd/dtd.h"
#include "dtd/dtd_conflict.h"
#include "dtd/type_summary.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

class TypePruneTest : public ::testing::Test {
 protected:
  Label L(const char* name) { return symbols_->Intern(name); }

  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
};

std::vector<Label> SortedLabels(std::vector<Label> labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// ---------------------------------------------------------------------------
// TypeSet lattice (sorted-vector backing).

TEST_F(TypePruneTest, TypeSetInsertKeepsSortedDedupedLabels) {
  TypeSet s = TypeSet::Empty();
  EXPECT_TRUE(s.empty());
  s.Insert(L("c"));
  s.Insert(L("a"));
  s.Insert(L("b"));
  s.Insert(L("a"));  // duplicate
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.labels().size(), 3u);
  EXPECT_EQ(s.labels(), SortedLabels({L("a"), L("b"), L("c")}));
  EXPECT_TRUE(s.Contains(L("a")));
  EXPECT_TRUE(s.Contains(L("c")));
  EXPECT_FALSE(s.Contains(L("d")));
}

TEST_F(TypePruneTest, TypeSetUnionAndIntersection) {
  TypeSet ab = TypeSet::Of(L("a"));
  ab.Insert(L("b"));
  TypeSet bc = TypeSet::Of(L("c"));
  bc.Insert(L("b"));
  TypeSet d = TypeSet::Of(L("d"));

  EXPECT_TRUE(TypeSet::Intersects(ab, bc));
  EXPECT_TRUE(TypeSet::Intersects(bc, ab));  // symmetric
  EXPECT_FALSE(TypeSet::Intersects(ab, d));
  EXPECT_FALSE(TypeSet::Intersects(d, ab));
  EXPECT_EQ(TypeSet::Intersect(ab, bc), TypeSet::Of(L("b")));

  TypeSet u = ab;
  u.UnionWith(bc);
  EXPECT_EQ(u.labels(), SortedLabels({L("a"), L("b"), L("c")}));

  // Empty is the union identity and the intersection absorber.
  TypeSet e = TypeSet::Empty();
  EXPECT_FALSE(TypeSet::Intersects(e, ab));
  EXPECT_TRUE(TypeSet::Intersect(e, ab).empty());
  e.UnionWith(ab);
  EXPECT_EQ(e, ab);
}

TEST_F(TypePruneTest, TypeSetTopAbsorbs) {
  const TypeSet top = TypeSet::Top();
  EXPECT_TRUE(top.top());
  EXPECT_FALSE(top.empty());
  EXPECT_TRUE(top.Contains(L("anything")));

  TypeSet s = TypeSet::Of(L("a"));
  s.UnionWith(top);
  EXPECT_TRUE(s.top());

  // ⊤ is the intersection identity — but ⊤ ∩ ∅ must stay empty.
  EXPECT_EQ(TypeSet::Intersect(top, TypeSet::Of(L("a"))), TypeSet::Of(L("a")));
  EXPECT_TRUE(TypeSet::Intersect(top, TypeSet::Empty()).empty());
  EXPECT_FALSE(TypeSet::Intersects(top, TypeSet::Empty()));
  EXPECT_TRUE(TypeSet::Intersects(top, top));
  EXPECT_GT(top.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Reachability over the allow-graph.

TEST_F(TypePruneTest, ChildTypesFollowAllowListsAndWidenOnUnsealed) {
  Dtd dtd(symbols_);
  dtd.SetRootLabel(L("r"));
  dtd.Allow(L("r"), L("a"));
  dtd.Allow(L("a"), L("a"));
  dtd.Allow(L("a"), L("b"));
  dtd.Seal(L("b"));
  ASSERT_TRUE(dtd.Validate().ok());

  EXPECT_EQ(ChildTypes(dtd, TypeSet::Of(L("r"))), TypeSet::Of(L("a")));
  TypeSet ab = TypeSet::Of(L("a"));
  ab.Insert(L("b"));
  EXPECT_EQ(ChildTypes(dtd, TypeSet::Of(L("a"))), ab);
  EXPECT_TRUE(ChildTypes(dtd, TypeSet::Of(L("b"))).empty());  // sealed leaf
  EXPECT_EQ(ReachPlus(dtd, TypeSet::Of(L("r"))), ab);
  TypeSet rab = ab;
  rab.Insert(L("r"));
  EXPECT_EQ(ReachStar(dtd, TypeSet::Of(L("r"))), rab);

  // An unsealed label accepts any children: one step widens to ⊤.
  Dtd open(symbols_);
  open.SetRootLabel(L("r"));
  open.Allow(L("r"), L("a"));  // a itself never sealed
  EXPECT_TRUE(ChildTypes(open, TypeSet::Of(L("a"))).top());
  EXPECT_TRUE(ReachPlus(open, TypeSet::Of(L("r"))).top());
}

TEST_F(TypePruneTest, SummaryPinsRootAndDetectsDeadPatterns) {
  Dtd dtd(symbols_);
  dtd.SetRootLabel(L("r"));
  dtd.Allow(L("r"), L("a"));
  dtd.Allow(L("a"), L("a"));
  dtd.Allow(L("a"), L("b"));
  dtd.Seal(L("b"));

  // Embeddings are root-preserving: a pattern rooted at `b` can never
  // match a conformant document (root label is pinned to r).
  EXPECT_TRUE(ComputeTypeSummary(Xp("b/a", symbols_), dtd).dead);
  // `b` is not allowed directly under `r`.
  EXPECT_TRUE(ComputeTypeSummary(Xp("r/b", symbols_), dtd).dead);

  const TypeSummary alive = ComputeTypeSummary(Xp("r/a", symbols_), dtd);
  EXPECT_FALSE(alive.dead);
  EXPECT_EQ(alive.output_types, TypeSet::Of(L("a")));
  TypeSet ab = TypeSet::Of(L("a"));
  ab.Insert(L("b"));
  EXPECT_EQ(alive.subtree, ab);  // ReachStar({a})
  // touched is node images only for a pure child chain: {r, a}.
  TypeSet ra = TypeSet::Of(L("r"));
  ra.Insert(L("a"));
  EXPECT_EQ(alive.touched, ra);
  // Chain: every node is an ancestor-of-or-self of the output, so
  // insert-sensitivity is just the output's label class.
  EXPECT_EQ(alive.insert_sensitive, TypeSet::Of(L("a")));

  // A descendant edge adds the gap-path types to `touched`.
  const TypeSummary desc = ComputeTypeSummary(Xp("r//b", symbols_), dtd);
  EXPECT_FALSE(desc.dead);
  TypeSet gap = ra;
  gap.Insert(L("b"));
  EXPECT_EQ(desc.touched, gap);
  EXPECT_EQ(desc.subtree, TypeSet::Of(L("b")));  // sealed leaf
}

TEST_F(TypePruneTest, TypePrunedReportHasFixedFields) {
  const ConflictReport report = TypePrunedReport();
  EXPECT_EQ(report.verdict, ConflictVerdict::kNoConflict);
  EXPECT_EQ(report.method, DetectorMethod::kTypePruned);
  EXPECT_EQ(report.detail, "schema-disjoint");
  EXPECT_FALSE(report.witness.has_value());
  EXPECT_EQ(report.trees_checked, 0u);
  EXPECT_EQ(DetectorMethodName(DetectorMethod::kTypePruned), "type-pruned");
}

// ---------------------------------------------------------------------------
// The two soundness asymmetries of the pruning rules.

TEST_F(TypePruneTest, SchemaDeadReadPrunesDeletesButNotInserts) {
  Dtd dtd(symbols_);
  dtd.SetRootLabel(L("r"));
  dtd.Allow(L("r"), L("a"));
  dtd.Seal(L("a"));

  // r//b is schema-dead: b is unreachable in the allow-graph.
  const TypeSummary read = ComputeTypeSummary(Xp("r//b", symbols_), dtd);
  ASSERT_TRUE(read.dead);
  const TypeSummary del = ComputeTypeSummary(Xp("r/a", symbols_), dtd);

  // Deletes are monotone (never create matches): a dead read stays dead,
  // so pruning is sound — and the conformant-tree oracle agrees.
  EXPECT_TRUE(TypePrunesReadDelete(read, del, ConflictSemantics::kNode));
  BoundedSearchOptions options;
  options.max_nodes = 4;
  const BruteForceResult oracle = FindReadDeleteConflictUnderDtd(
      Xp("r//b", symbols_), Xp("r/a", symbols_), dtd, ConflictSemantics::kNode,
      options);
  EXPECT_EQ(oracle.outcome, SearchOutcome::kExhaustedNoWitness);

  // An insert, however, can push the document *outside* the schema and
  // give the dead read its first match: INSERT <b/> at r/a conflicts with
  // r//b even though no conformant document matches r//b. read.dead must
  // not prune inserts.
  const Tree content = Xml("<b/>", symbols_);
  EXPECT_FALSE(
      TypePrunesReadInsert(read, del, content, ConflictSemantics::kNode));
  auto store = std::make_shared<PatternStore>(symbols_);
  const PatternRef read_ref = store->Intern(Xp("r//b", symbols_));
  const UpdateOp insert = UpdateOp::MakeInsert(
      store, store->Intern(Xp("r/a", symbols_)),
      std::make_shared<const Tree>(Xml("<b/>", symbols_)));
  DetectorOptions with_dtd;
  with_dtd.dtd = &dtd;
  const Result<ConflictReport> report =
      Detect(*store, read_ref, insert, with_dtd);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConflictVerdict::kConflict);
  EXPECT_NE(report->method, DetectorMethod::kTypePruned);
}

TEST_F(TypePruneTest, SchemaDeadUpdatePatternPrunesBothKinds) {
  Dtd dtd(symbols_);
  dtd.SetRootLabel(L("r"));
  dtd.Allow(L("r"), L("a"));
  dtd.Seal(L("a"));

  const TypeSummary read = ComputeTypeSummary(Xp("r//a", symbols_), dtd);
  ASSERT_FALSE(read.dead);
  // r/b never selects anything on a conformant document, so neither the
  // delete nor the insert it anchors can fire.
  const TypeSummary upd = ComputeTypeSummary(Xp("r/b", symbols_), dtd);
  ASSERT_TRUE(upd.dead);
  EXPECT_TRUE(TypePrunesReadDelete(read, upd, ConflictSemantics::kTree));
  const Tree content = Xml("<a/>", symbols_);
  EXPECT_TRUE(
      TypePrunesReadInsert(read, upd, content, ConflictSemantics::kTree));
}

// ---------------------------------------------------------------------------
// A small typed workload (the bench shape at test size): `subsystems`
// sealed label families under a sealed root; cross-subsystem pairs are
// schema-disjoint, same-subsystem pairs are not.

struct SmallTypedWorkload {
  std::shared_ptr<SymbolTable> symbols;
  std::shared_ptr<PatternStore> store;
  std::shared_ptr<const Dtd> dtd;
  std::vector<PatternRef> reads;    // 2 per subsystem
  std::vector<UpdateOp> updates;    // 1 delete + 1 insert per subsystem
};

SmallTypedWorkload MakeSmallTypedWorkload(size_t subsystems) {
  SmallTypedWorkload w;
  w.symbols = NewSymbols();
  w.store = std::make_shared<PatternStore>(w.symbols);

  std::string schema = "root r\nallow r :";
  for (size_t k = 0; k < subsystems; ++k) schema += " s" + std::to_string(k);
  schema += "\n";
  for (size_t k = 0; k < subsystems; ++k) {
    const std::string s = std::to_string(k);
    schema += "allow s" + s + " : x" + s + "\n";
    schema += "allow x" + s + " : x" + s + " y" + s + "\n";
    schema += "seal y" + s + "\n";
  }
  w.dtd = std::make_shared<const Dtd>(Dtd::Parse(schema, w.symbols).value());

  for (size_t k = 0; k < subsystems; ++k) {
    const std::string s = std::to_string(k);
    w.reads.push_back(
        w.store->Intern(Xp("r/s" + s + "/x" + s + "/y" + s, w.symbols)));
    w.reads.push_back(w.store->Intern(Xp("r/s" + s + "//y" + s, w.symbols)));
    w.updates.push_back(
        UpdateOp::MakeDelete(
            w.store, w.store->Intern(Xp("r/s" + s + "//y" + s, w.symbols)))
            .value());
    w.updates.push_back(UpdateOp::MakeInsert(
        w.store, w.store->Intern(Xp("r/s" + s + "/x" + s, w.symbols)),
        std::make_shared<const Tree>(Xml("<y" + s + "/>", w.symbols))));
  }
  return w;
}

TEST_F(TypePruneTest, FacadeStageZeroPrunesCrossSubsystemPairsOnly) {
  const SmallTypedWorkload w = MakeSmallTypedWorkload(2);
  DetectorOptions pruned;
  pruned.dtd = w.dtd.get();

  // Cross-subsystem: Stage 0 answers.
  const Result<ConflictReport> cross =
      Detect(*w.store, w.reads[0], w.updates[2], pruned);
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->method, DetectorMethod::kTypePruned);
  EXPECT_EQ(cross->verdict, ConflictVerdict::kNoConflict);

  // Same-subsystem: read r/s0/x0/y0 vs delete r/s0//y0 overlaps on y0 —
  // Stage 0 hands the pair down, and the verdict is the real conflict.
  const Result<ConflictReport> same =
      Detect(*w.store, w.reads[0], w.updates[0], pruned);
  ASSERT_TRUE(same.ok());
  EXPECT_NE(same->method, DetectorMethod::kTypePruned);
  EXPECT_EQ(same->verdict, ConflictVerdict::kConflict);

  // No schema, no Stage 0.
  for (const PatternRef read : w.reads) {
    for (const UpdateOp& update : w.updates) {
      const Result<ConflictReport> off = Detect(*w.store, read, update);
      ASSERT_TRUE(off.ok());
      EXPECT_NE(off->method, DetectorMethod::kTypePruned);
    }
  }
}

TEST_F(TypePruneTest, StageZeroRejectsASchemaOnAnotherSymbolTable) {
  // The patterns live on symbols_; `foreign` interned c and d before r, so
  // the same names carry other labels there. Comparing labels across the
  // two tables once pruned this real conflict.
  auto store = std::make_shared<PatternStore>(symbols_);
  const PatternRef read = store->Intern(Xp("r/c", symbols_));
  const UpdateOp del =
      UpdateOp::MakeDelete(store, store->Intern(Xp("r/c", symbols_))).value();
  const char* const kSchema = "root r\nallow r : c d\nseal c\nseal d\n";
  const std::shared_ptr<SymbolTable> foreign = NewSymbols();
  foreign->Intern("c");
  foreign->Intern("d");
  const Dtd foreign_dtd = Dtd::Parse(kSchema, foreign).value();
  const Dtd own_dtd = Dtd::Parse(kSchema, symbols_).value();

  const obs::Counter& errors =
      obs::MetricsRegistry::Default().GetCounter("detector.errors");
  const uint64_t errors0 = errors.value();
  DetectorOptions options;
  options.dtd = &foreign_dtd;
  const Result<ConflictReport> rejected = Detect(*store, read, del, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(errors.value() - errors0, 1u);

  options.dtd = &own_dtd;
  const Result<ConflictReport> real = Detect(*store, read, del, options);
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real->verdict, ConflictVerdict::kConflict);
  EXPECT_EQ(real->method, DetectorMethod::kLinearPtime);
}

TEST_F(TypePruneTest, FacadeAccountingInvariantHoldsWithStageZero) {
  const SmallTypedWorkload w = MakeSmallTypedWorkload(3);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto counter = [&](const char* name) {
    return reg.GetCounter(name).value();
  };
  const uint64_t calls0 = counter("detector.calls");
  const uint64_t conflict0 = counter("detector.verdict.conflict");
  const uint64_t no_conflict0 = counter("detector.verdict.no_conflict");
  const uint64_t unknown0 = counter("detector.verdict.unknown");
  const uint64_t errors0 = counter("detector.errors");
  const uint64_t pruned0 = counter("detector.method.type_pruned");

  DetectorOptions options;
  options.dtd = w.dtd.get();
  uint64_t pruned_seen = 0;
  for (const PatternRef read : w.reads) {
    for (const UpdateOp& update : w.updates) {
      const Result<ConflictReport> r = Detect(*w.store, read, update, options);
      ASSERT_TRUE(r.ok());
      if (r->method == DetectorMethod::kTypePruned) ++pruned_seen;
    }
  }
  // One error-path call: an invalid ref counts under detector.errors and
  // must still balance the call counter.
  EXPECT_FALSE(Detect(*w.store, PatternRef(), w.updates[0], options).ok());

  const uint64_t calls = counter("detector.calls") - calls0;
  const uint64_t conflict = counter("detector.verdict.conflict") - conflict0;
  const uint64_t no_conflict =
      counter("detector.verdict.no_conflict") - no_conflict0;
  const uint64_t unknown = counter("detector.verdict.unknown") - unknown0;
  const uint64_t errors = counter("detector.errors") - errors0;
  const uint64_t pruned = counter("detector.method.type_pruned") - pruned0;

  EXPECT_EQ(calls, w.reads.size() * w.updates.size() + 1);
  EXPECT_EQ(calls, conflict + no_conflict + unknown + errors);
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(pruned, pruned_seen);
  EXPECT_GT(pruned, 0u);
  // Every pruned pair is a kNoConflict verdict, so the pruned count is
  // bounded by the no-conflict leg.
  EXPECT_LE(pruned, no_conflict);
}

TEST_F(TypePruneTest, BatchPrunesThroughTheDetectFacade) {
  const SmallTypedWorkload w = MakeSmallTypedWorkload(3);
  BatchDetectorOptions options;
  options.detector.dtd = w.dtd.get();
  options.detector.build_witness = false;
  options.store = w.store;
  BatchConflictDetector batch(options);
  const obs::Counter& type_pruned =
      obs::MetricsRegistry::Default().GetCounter("detector.method.type_pruned");

  // Cross-subsystem pairs only, each asked twice in one call: every job is
  // answered by the facade's Stage 0, and each duplicate is a hit on the
  // first asking's job.
  std::vector<ReadUpdatePair> cross;
  for (size_t i = 0; i < w.reads.size(); ++i) {
    for (size_t j = 0; j < w.updates.size(); ++j) {
      if (i / 2 != j / 2) cross.push_back({i, j});
    }
  }
  std::vector<ReadUpdatePair> twice = cross;
  twice.insert(twice.end(), cross.begin(), cross.end());
  const uint64_t pruned0 = type_pruned.value();
  const auto pruned_results = batch.DetectPairs(w.reads, w.updates, twice);
  ASSERT_EQ(pruned_results.size(), twice.size());
  for (const SharedConflictResult& r : pruned_results) {
    ASSERT_TRUE(r->ok());
    EXPECT_EQ((*r)->method, DetectorMethod::kTypePruned);
    EXPECT_EQ((*r)->verdict, ConflictVerdict::kNoConflict);
  }
  BatchStats stats = batch.stats();
  EXPECT_EQ(stats.pairs_total, twice.size());
  EXPECT_EQ(stats.cache_hits, cross.size());
  EXPECT_EQ(stats.cache_misses, cross.size());
  EXPECT_EQ(type_pruned.value() - pruned0, stats.cache_misses);

  // The full matrix mixes pruned and solved pairs; the engine-checked
  // invariant hits + misses == pairs_total holds, and Stage 0 ran once
  // per pruned job.
  batch.ResetStats();
  const uint64_t pruned1 = type_pruned.value();
  const auto matrix = batch.DetectMatrix(w.reads, w.updates);
  ASSERT_EQ(matrix.size(), w.reads.size() * w.updates.size());
  stats = batch.stats();
  EXPECT_EQ(stats.pairs_total, matrix.size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.pairs_total);
  uint64_t pruned_cells = 0;
  for (const SharedConflictResult& r : matrix) {
    ASSERT_TRUE(r->ok());
    if ((*r)->method == DetectorMethod::kTypePruned) ++pruned_cells;
  }
  EXPECT_GT(pruned_cells, 0u);
  EXPECT_LT(pruned_cells, matrix.size());
  // The workload's pairs are all distinct, so every cell is its own job.
  EXPECT_EQ(stats.cache_misses, matrix.size());
  EXPECT_EQ(type_pruned.value() - pruned1, pruned_cells);
}

TEST_F(TypePruneTest, EngineInheritsTheSchemaEverywhere) {
  SmallTypedWorkload w = MakeSmallTypedWorkload(2);
  EngineOptions options;
  options.dtd = w.dtd;
  options.batch.detector.build_witness = false;
  Engine engine(w.symbols, std::move(options));

  const PatternRef read = engine.InternXPath("r/s0/x0/y0").value();
  const UpdateOp del =
      UpdateOp::MakeDelete(engine.store(),
                           engine.InternXPath("r/s1//y1").value())
          .value();
  const Result<ConflictReport> report = engine.Detect(read, del);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->method, DetectorMethod::kTypePruned);
  EXPECT_EQ(report->verdict, ConflictVerdict::kNoConflict);

  // The matrix engine under the facade prunes with the same schema.
  std::vector<PatternRef> reads;
  for (const PatternRef r : w.reads) {
    reads.push_back(engine.Intern(w.store->pattern(r)));
  }
  std::vector<UpdateOp> updates;
  for (const UpdateOp& u : w.updates) updates.push_back(engine.Bind(u));
  size_t pruned_cells = 0;
  for (const SharedConflictResult& r : engine.DetectMatrix(reads, updates)) {
    ASSERT_TRUE(r->ok());
    if ((*r)->method == DetectorMethod::kTypePruned) ++pruned_cells;
  }
  EXPECT_GT(pruned_cells, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the pruned pipeline must give the same verdict/method
// matrix at any thread count, and concurrent facade calls on one shared
// store (racing summary builds and store appends) must agree with a
// single-threaded reference. These are the TSan targets.

TEST_F(TypePruneTest, BatchVerdictsAreIdenticalAcrossThreadCounts) {
  const SmallTypedWorkload w = MakeSmallTypedWorkload(4);
  auto run = [&](size_t num_threads) {
    BatchDetectorOptions options;
    options.detector.dtd = w.dtd.get();
    options.detector.build_witness = false;
    options.num_threads = num_threads;
    options.store = w.store;
    BatchConflictDetector batch(options);
    return batch.DetectMatrix(w.reads, w.updates);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i]->ok());
    ASSERT_TRUE(parallel[i]->ok());
    EXPECT_EQ((*serial[i])->verdict, (*parallel[i])->verdict) << i;
    EXPECT_EQ((*serial[i])->method, (*parallel[i])->method) << i;
    EXPECT_EQ((*serial[i])->detail, (*parallel[i])->detail) << i;
  }
}

TEST_F(TypePruneTest, ConcurrentFacadeDetectsOnOneSharedStore) {
  // A fresh workload per run: the eight threads race the lazy summary
  // builds (TypesSlot call_once), the lock-free entry-table reads, and —
  // via their own Intern calls — the writer side of the table.
  const SmallTypedWorkload w = MakeSmallTypedWorkload(4);
  DetectorOptions options;
  options.dtd = w.dtd.get();
  options.build_witness = false;

  std::vector<ConflictVerdict> reference;
  std::vector<DetectorMethod> reference_methods;
  for (const PatternRef read : w.reads) {
    for (const UpdateOp& update : w.updates) {
      const Result<ConflictReport> r = Detect(*w.store, read, update, options);
      ASSERT_TRUE(r.ok());
      reference.push_back(r->verdict);
      reference_methods.push_back(r->method);
    }
  }

  constexpr size_t kThreads = 8;
  std::vector<std::vector<ConflictVerdict>> verdicts(kThreads);
  std::vector<std::vector<DetectorMethod>> methods(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Interleave appends with the detection reads.
      w.store->Intern(Xp("r/s" + std::to_string(t % 4) + "/x" +
                             std::to_string(t % 4),
                         w.symbols));
      for (const PatternRef read : w.reads) {
        for (const UpdateOp& update : w.updates) {
          const Result<ConflictReport> r =
              Detect(*w.store, read, update, options);
          if (!r.ok()) continue;  // sizes diverge -> test fails below
          verdicts[t].push_back(r->verdict);
          methods[t].push_back(r->method);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(verdicts[t], reference) << "thread " << t;
    EXPECT_EQ(methods[t], reference_methods) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Exhaustive small-pattern sweep against the conformant-tree oracles.
//
// Schema: root r, r -> {a}, a -> {a, b}, b sealed leaf. Reads are every
// linear chain of <= 3 nodes rooted at r or a (the latter all schema-dead)
// over labels {r, a, b}; updates are every delete chain of 2..3 nodes
// rooted at r plus inserts at every chain of <= 2 nodes with contents
// drawn from in-schema and out-of-schema trees.
//
// Checked per (pair, semantics):
//   - Stage 0 did not fire       -> report == the unrestricted report;
//   - Stage 0 fired              -> kNoConflict, and when the unrestricted
//     verdict disagrees (a conflict whose witnesses the schema excludes),
//     the exhaustive conformant-tree search must come up empty. The
//     oracle's bound (4 nodes) covers every witness the unrestricted
//     detector found for these pattern sizes, so an unsound prune cannot
//     hide behind the bound.

void AppendChains(const std::shared_ptr<SymbolTable>& symbols,
                  const std::vector<Label>& roots,
                  const std::vector<Label>& labels, size_t min_nodes,
                  size_t max_nodes, std::vector<Pattern>* out) {
  for (const Label root : roots) {
    for (size_t n = min_nodes; n <= max_nodes; ++n) {
      const size_t edges = n - 1;
      for (size_t axes = 0; axes < (size_t{1} << edges); ++axes) {
        std::vector<size_t> labeling(edges, 0);
        while (true) {
          Pattern p(symbols);
          PatternNodeId node = p.CreateRoot(root);
          for (size_t i = 0; i < edges; ++i) {
            const Axis axis =
                (axes >> i) & 1 ? Axis::kDescendant : Axis::kChild;
            node = p.AddChild(node, labels[labeling[i]], axis);
          }
          p.SetOutput(node);
          out->push_back(std::move(p));
          size_t i = 0;
          while (i < edges && ++labeling[i] == labels.size()) {
            labeling[i++] = 0;
          }
          if (i == edges) break;
        }
      }
    }
  }
}

class TypePruneSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dtd_ = std::make_unique<Dtd>(symbols_);
    dtd_->SetRootLabel(L("r"));
    dtd_->Allow(L("r"), L("a"));
    dtd_->Allow(L("a"), L("a"));
    dtd_->Allow(L("a"), L("b"));
    dtd_->Seal(L("b"));
    ASSERT_TRUE(dtd_->Validate().ok());
    store_ = std::make_shared<PatternStore>(symbols_);

    std::vector<Pattern> read_patterns;
    AppendChains(symbols_, {L("r"), L("a")}, {L("r"), L("a"), L("b")}, 1, 3,
                 &read_patterns);
    for (const Pattern& p : read_patterns) {
      reads_.push_back(store_->Intern(p));
    }
  }

  /// Reports must agree on every deterministic field (witness trees mint
  /// fresh labels; presence is compared, content is not).
  static void ExpectSameReport(const Result<ConflictReport>& a,
                               const Result<ConflictReport>& b,
                               const std::string& label) {
    ASSERT_EQ(a.ok(), b.ok()) << label;
    if (!a.ok()) return;
    EXPECT_EQ(a->verdict, b->verdict) << label;
    EXPECT_EQ(a->method, b->method) << label;
    EXPECT_EQ(a->detail, b->detail) << label;
    EXPECT_EQ(a->trees_checked, b->trees_checked) << label;
    EXPECT_EQ(a->witness.has_value(), b->witness.has_value()) << label;
  }

  /// The two-way comparison at the heart of the sweep; `oracle` runs the
  /// schema-restricted exhaustive search for pairs where only the oracle
  /// can adjudicate the prune.
  template <typename Oracle>
  void CheckPair(const PatternRef read, const UpdateOp& update,
                 ConflictSemantics semantics, const std::string& label,
                 Oracle&& oracle) {
    DetectorOptions plain;
    plain.semantics = semantics;
    plain.build_witness = false;
    DetectorOptions pruned = plain;
    pruned.dtd = dtd_.get();

    const Result<ConflictReport> off = Detect(*store_, read, update, plain);
    const Result<ConflictReport> on = Detect(*store_, read, update, pruned);
    ASSERT_TRUE(off.ok()) << label;
    ASSERT_TRUE(on.ok()) << label;

    if (on->method != DetectorMethod::kTypePruned) {
      // Stage 0 handed the pair down: Stages 1-2 are schema-oblivious.
      ExpectSameReport(off, on, label + " [not pruned]");
      return;
    }
    EXPECT_EQ(on->verdict, ConflictVerdict::kNoConflict) << label;
    if (off->verdict == ConflictVerdict::kNoConflict) return;
    // The unrestricted detector sees a conflict (or cannot decide) but
    // Stage 0 pruned: every witness must be non-conformant. Exhaust the
    // conformant space up to the bound.
    const BruteForceResult restricted = oracle();
    EXPECT_EQ(restricted.outcome, SearchOutcome::kExhaustedNoWitness)
        << label << " — type-pruned pair has a conformant witness";
    EXPECT_FALSE(restricted.truncated) << label;
  }

  Label L(const char* name) { return symbols_->Intern(name); }

  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  std::unique_ptr<Dtd> dtd_;
  std::shared_ptr<PatternStore> store_;
  std::vector<PatternRef> reads_;
};

TEST_F(TypePruneSweepTest, DeleteSweepMatchesOracles) {
  std::vector<Pattern> delete_patterns;
  AppendChains(symbols_, {L("r")}, {L("r"), L("a"), L("b")}, 2, 3,
               &delete_patterns);
  std::vector<UpdateOp> deletes;
  for (const Pattern& p : delete_patterns) {
    deletes.push_back(UpdateOp::MakeDelete(store_, store_->Intern(p)).value());
  }
  BoundedSearchOptions oracle_options;
  oracle_options.max_nodes = 4;

  for (const ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kTree}) {
    for (size_t i = 0; i < reads_.size(); ++i) {
      for (size_t j = 0; j < deletes.size(); ++j) {
        const std::string label =
            "delete pair (" + std::to_string(i) + "," + std::to_string(j) +
            ") sem=" + std::string(ConflictSemanticsName(semantics));
        CheckPair(reads_[i], deletes[j], semantics, label, [&] {
          return FindReadDeleteConflictUnderDtd(
              store_->pattern(reads_[i]),
              store_->pattern(deletes[j].pattern_ref()), *dtd_, semantics,
              oracle_options);
        });
      }
    }
  }
}

TEST_F(TypePruneSweepTest, InsertSweepMatchesOracles) {
  std::vector<Pattern> insert_patterns;
  AppendChains(symbols_, {L("r")}, {L("r"), L("a"), L("b")}, 1, 2,
               &insert_patterns);
  std::vector<UpdateOp> inserts;
  for (const Pattern& p : insert_patterns) {
    // Contents: in-schema leaf, out-of-schema leaf, in-schema subtree.
    for (const char* xml : {"<b/>", "<c/>", "<a><b/></a>"}) {
      inserts.push_back(UpdateOp::MakeInsert(
          store_, store_->Intern(p),
          std::make_shared<const Tree>(Xml(xml, symbols_))));
    }
  }
  BoundedSearchOptions oracle_options;
  oracle_options.max_nodes = 4;

  for (const ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kTree}) {
    for (size_t i = 0; i < reads_.size(); ++i) {
      for (size_t j = 0; j < inserts.size(); ++j) {
        const std::string label =
            "insert pair (" + std::to_string(i) + "," + std::to_string(j) +
            ") sem=" + std::string(ConflictSemanticsName(semantics));
        CheckPair(reads_[i], inserts[j], semantics, label, [&] {
          return FindReadInsertConflictUnderDtd(
              store_->pattern(reads_[i]),
              store_->pattern(inserts[j].pattern_ref()), inserts[j].content(),
              *dtd_, semantics, oracle_options);
        });
      }
    }
  }
}

}  // namespace
}  // namespace xmlup
