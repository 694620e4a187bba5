// The compiled-automata hot path must be invisible except for speed: the
// ref-based Detect (compiled NFAs from PatternStore::compiled + the
// NfaProductCache) and the value Detect on the stored pattern must agree
// on every deterministic report field, over an exhaustive small-pattern
// sweep, randomized programs, and under 8-way concurrency on one shared
// store. Also covers this PR's error-path fixes: the detector accounting
// invariant (calls == conflict + no_conflict + unknown + errors), the
// store.nfa.* / detector.product_cache.* counter contracts, and the
// centralized root-delete guard on every entry point (factories, value
// and compiled detectors, batch engine).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/nfa_ops.h"
#include "common/random.h"
#include "conflict/batch_detector.h"
#include "conflict/detector.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern_store.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

/// Field-by-field agreement on verdict, method, trees_checked and detail.
/// Witness *trees* are compared by presence only: both sides' witnesses are
/// already re-verified by the Lemma 1 checkers inside the detectors.
void ExpectSameReport(const Result<ConflictReport>& by_value,
                      const Result<ConflictReport>& by_ref,
                      const std::string& label) {
  ASSERT_EQ(by_value.ok(), by_ref.ok()) << label;
  if (!by_value.ok()) {
    EXPECT_EQ(by_value.status().code(), by_ref.status().code()) << label;
    return;
  }
  EXPECT_EQ(by_value->verdict, by_ref->verdict) << label;
  EXPECT_EQ(by_value->method, by_ref->method) << label;
  EXPECT_EQ(by_value->trees_checked, by_ref->trees_checked) << label;
  EXPECT_EQ(by_value->detail, by_ref->detail) << label;
  EXPECT_EQ(by_value->witness.has_value(), by_ref->witness.has_value())
      << label;
}

/// Every linear pattern with 1..max_nodes nodes over `labels` (a chain per
/// shape: all axis assignments × labelings; output = the unique leaf).
std::vector<Pattern> EnumerateLinearPatterns(
    const std::shared_ptr<SymbolTable>& symbols,
    const std::vector<Label>& labels, size_t max_nodes) {
  std::vector<Pattern> out;
  for (size_t n = 1; n <= max_nodes; ++n) {
    const size_t edges = n - 1;
    for (size_t axes = 0; axes < (size_t{1} << edges); ++axes) {
      std::vector<size_t> labeling(n, 0);
      while (true) {
        Pattern p(symbols);
        PatternNodeId node = p.CreateRoot(labels[labeling[0]]);
        for (size_t i = 1; i < n; ++i) {
          const Axis axis =
              (axes >> (i - 1)) & 1 ? Axis::kDescendant : Axis::kChild;
          node = p.AddChild(node, labels[labeling[i]], axis);
        }
        p.SetOutput(node);
        out.push_back(std::move(p));
        size_t i = 0;
        while (i < n && labeling[i] == labels.size() - 1) labeling[i++] = 0;
        if (i == n) break;
        ++labeling[i];
      }
    }
  }
  return out;
}

/// A fixed mixed update workload bound to `store`: inserts and deletes
/// whose patterns/content overlap the {a, b} read alphabet so the sweep
/// hits conflicts, no-conflicts and the wildcard classes.
std::vector<UpdateOp> BoundUpdates(
    const std::shared_ptr<PatternStore>& store,
    const std::shared_ptr<SymbolTable>& symbols) {
  auto content_ab = std::make_shared<const Tree>(Xml("<a><b/></a>", symbols));
  auto content_b = std::make_shared<const Tree>(Xml("<b/>", symbols));
  std::vector<UpdateOp> updates;
  updates.push_back(UpdateOp::MakeInsert(store, store->Intern(Xp("a/b", symbols)),
                                         content_ab));
  updates.push_back(UpdateOp::MakeInsert(
      store, store->Intern(Xp("a//b", symbols)), content_b));
  updates.push_back(UpdateOp::MakeInsert(store, store->Intern(Xp("b", symbols)),
                                         content_ab));
  for (const char* del : {"a/b", "a//*", "b//a"}) {
    Result<UpdateOp> op =
        UpdateOp::MakeDelete(store, store->Intern(Xp(del, symbols)));
    EXPECT_TRUE(op.ok()) << del;
    updates.push_back(*std::move(op));
  }
  return updates;
}

TEST(DetectHotCacheTest, ExhaustiveLinearSweepCachedEqualsUncached) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<Label> labels = {symbols->Intern("a"),
                                     symbols->Intern("b"), kWildcardLabel};
  // 3 + 18 + 108 + 648 linear chains over {a, b, *} with <= 4 nodes.
  const std::vector<Pattern> reads =
      EnumerateLinearPatterns(symbols, labels, 4);
  ASSERT_EQ(reads.size(), 777u);
  const std::vector<UpdateOp> updates = BoundUpdates(store, symbols);

  DetectorOptions options;
  options.semantics = ConflictSemantics::kValue;
  for (size_t i = 0; i < reads.size(); ++i) {
    const PatternRef ref = store->Intern(reads[i]);
    for (size_t j = 0; j < updates.size(); ++j) {
      Result<ConflictReport> by_value =
          Detect(store->pattern(ref), updates[j], options);
      Result<ConflictReport> by_ref = Detect(*store, ref, updates[j], options);
      ExpectSameReport(by_value, by_ref,
                       "read " + std::to_string(i) + " update " +
                           std::to_string(j));
    }
  }
}

TEST(DetectHotCacheTest, RandomizedProgramsCachedEqualsUncached) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  Rng rng(20260807);
  PatternGenOptions gen_options;
  gen_options.size = 4;
  gen_options.branch_prob = 0.4;
  gen_options.alphabet = {symbols->Intern("a"), symbols->Intern("b"),
                          symbols->Intern("c")};
  RandomPatternGenerator gen(symbols, gen_options);
  DetectorOptions options;
  options.search.max_nodes = 4;

  for (int iter = 0; iter < 80; ++iter) {
    const bool linear_read = iter % 2 == 0;
    const Pattern read =
        linear_read ? gen.GenerateLinear(&rng) : gen.GenerateBranching(&rng);
    const PatternRef read_ref = store->Intern(read);
    const Pattern update = iter % 4 < 2 ? gen.GenerateLinear(&rng)
                                        : gen.GenerateBranching(&rng);
    UpdateOp op = [&]() -> UpdateOp {
      if (iter % 3 == 0) {
        Result<UpdateOp> del =
            UpdateOp::MakeDelete(store, store->Intern(update));
        if (del.ok()) return *std::move(del);
        // Root-selecting delete generated: fall through to an insert.
      }
      Tree x(symbols);
      x.CreateRoot(gen_options.alphabet[rng.NextBounded(3)]);
      return UpdateOp::MakeInsert(store, store->Intern(update),
                                  std::make_shared<const Tree>(CopyTree(x)));
    }();
    // Both sides run on the *stored* (minimized) read, so full field
    // equality is expected even for branching reads — the minimization
    // asymmetry of the facade tests does not arise here.
    Result<ConflictReport> by_value =
        Detect(store->pattern(read_ref), op, options);
    Result<ConflictReport> by_ref = Detect(*store, read_ref, op, options);
    ExpectSameReport(by_value, by_ref, "iter " + std::to_string(iter));
  }
}

TEST(DetectHotCacheTest, ConcurrentSharedStoreDeterminism) {
  auto symbols = NewSymbols();
  // Expected reports from the value path (no shared caches involved).
  auto reference_store = std::make_shared<PatternStore>(symbols);
  const std::vector<const char*> read_specs = {
      "a//b",       "a/b",     "a//*/b", "b//a",    "a[b]//c",
      "a[q]/b//c",  "*//b",    "a/a/b",  "a//b//*", "c/b/a",
  };
  DetectorOptions options;
  options.search.max_nodes = 4;

  // A fresh store shared by all threads: every thread races the compiled()
  // latches and the product cache on the same refs.
  auto shared_store = std::make_shared<PatternStore>(symbols);
  const std::vector<UpdateOp> updates = BoundUpdates(shared_store, symbols);
  std::vector<PatternRef> read_refs;
  std::vector<ConflictReport> expected;  // value-path reports, in pair order
  std::vector<Pattern> reads;
  for (const char* spec : read_specs) reads.push_back(Xp(spec, symbols));
  for (const Pattern& read : reads) {
    const PatternRef ref = shared_store->Intern(read);
    read_refs.push_back(ref);
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> r =
          Detect(shared_store->pattern(ref), update, options);
      ASSERT_TRUE(r.ok());
      expected.push_back(std::move(r).value());
    }
  }

  for (const size_t num_threads : {size_t{1}, size_t{8}}) {
    // A fresh shared store per thread count, so the 8-thread leg compiles
    // every entry under contention rather than reusing the 1-thread run's.
    auto store = std::make_shared<PatternStore>(symbols);
    const std::vector<UpdateOp> bound = BoundUpdates(store, symbols);
    std::vector<PatternRef> refs;
    for (const Pattern& read : reads) refs.push_back(store->Intern(read));

    std::vector<int> mismatches(num_threads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < refs.size(); ++i) {
          for (size_t j = 0; j < bound.size(); ++j) {
            Result<ConflictReport> r =
                Detect(*store, refs[i], bound[j], options);
            const ConflictReport& want = expected[i * bound.size() + j];
            if (!r.ok() || r->verdict != want.verdict ||
                r->method != want.method || r->detail != want.detail ||
                r->trees_checked != want.trees_checked ||
                r->witness.has_value() != want.witness.has_value()) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t t = 0; t < num_threads; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << num_threads << " threads, thread " << t;
    }
  }
}

TEST(DetectHotCacheTest, StoreNfaCountersCountOneBuildPerEntry) {
  auto symbols = NewSymbols();
  PatternStore store(symbols);
  std::vector<PatternRef> refs;
  for (const char* spec : {"a//b", "a/b/c", "x//*/y", "a", "q[r]//s"}) {
    refs.push_back(store.Intern(Xp(spec, symbols)));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t hits_before = reg.GetCounter("store.nfa.hits").value();
  const uint64_t misses_before = reg.GetCounter("store.nfa.misses").value();
  const uint64_t bytes_before = reg.GetCounter("store.nfa.bytes").value();

  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (const PatternRef ref : refs) {
        const CompiledPattern& c = store.compiled(ref);
        EXPECT_GE(c.chain_length(), 1u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The once-per-entry latch admits exactly one build per ref, no matter
  // how many threads raced; every other request is a hit.
  EXPECT_EQ(reg.GetCounter("store.nfa.misses").value() - misses_before,
            refs.size());
  EXPECT_EQ(reg.GetCounter("store.nfa.hits").value() - hits_before,
            (kThreads - 1) * refs.size());
  EXPECT_GT(reg.GetCounter("store.nfa.bytes").value(), bytes_before);

  // Compiled forms are stable (same object on re-request) and their uids
  // are distinct across entries.
  const CompiledPattern& again = store.compiled(refs[0]);
  EXPECT_EQ(&again, &store.compiled(refs[0]));
  EXPECT_NE(store.compiled(refs[0]).mainline_uid(),
            store.compiled(refs[1]).mainline_uid());
}

TEST(DetectHotCacheTest, ProductCacheAccountingAndWarmHits) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<UpdateOp> updates = BoundUpdates(store, symbols);
  std::vector<PatternRef> refs;
  for (const char* spec : {"a//b", "a/b/c", "b//*", "a/a"}) {
    refs.push_back(store->Intern(Xp(spec, symbols)));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto lookups = [&] {
    return reg.GetCounter("detector.product_cache.lookups").value();
  };
  auto hits = [&] {
    return reg.GetCounter("detector.product_cache.hits").value();
  };
  auto misses = [&] {
    return reg.GetCounter("detector.product_cache.misses").value();
  };

  const uint64_t l0 = lookups(), h0 = hits(), m0 = misses();
  for (const PatternRef ref : refs) {
    for (const UpdateOp& update : updates) {
      ASSERT_TRUE(Detect(*store, ref, update).ok());
    }
  }
  const uint64_t l1 = lookups(), h1 = hits(), m1 = misses();
  EXPECT_EQ(l1 - l0, (h1 - h0) + (m1 - m0));
  EXPECT_GT(m1 - m0, 0u);

  // Second identical pass: every product was memoized — zero new misses.
  for (const PatternRef ref : refs) {
    for (const UpdateOp& update : updates) {
      ASSERT_TRUE(Detect(*store, ref, update).ok());
    }
  }
  const uint64_t l2 = lookups(), h2 = hits(), m2 = misses();
  EXPECT_EQ(l2 - l1, h2 - h1);
  EXPECT_EQ(m2 - m1, 0u);
  EXPECT_EQ(l2 - l0, (h2 - h0) + (m2 - m0));
}

TEST(DetectHotCacheTest, DetectorAccountingInvariantIncludesErrors) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto counter = [&](const char* name) {
    return reg.GetCounter(name).value();
  };
  const uint64_t calls0 = counter("detector.calls");
  const uint64_t conflict0 = counter("detector.verdict.conflict");
  const uint64_t no_conflict0 = counter("detector.verdict.no_conflict");
  const uint64_t unknown0 = counter("detector.verdict.unknown");
  const uint64_t errors0 = counter("detector.errors");

  auto content = std::make_shared<const Tree>(Xml("<b/>", symbols));
  DetectorOptions options;
  options.search.max_nodes = 1;  // starve the NP path toward kUnknown

  // Value path: a conflict and a no-conflict.
  ASSERT_TRUE(Detect(Xp("a//b", symbols),
                     UpdateOp::MakeInsert(Xp("a", symbols), content))
                  .ok());
  ASSERT_TRUE(Detect(Xp("x/y", symbols),
                     UpdateOp::MakeInsert(Xp("q", symbols), content))
                  .ok());
  // Ref path: cached detection.
  UpdateOp bound = UpdateOp::MakeInsert(
      store, store->Intern(Xp("a", symbols)), content);
  ASSERT_TRUE(
      Detect(*store, store->Intern(Xp("a//b", symbols)), bound, options).ok());
  // Branching read on a starved budget (may be unknown — any verdict keeps
  // the invariant; the point is it lands in exactly one bucket).
  ASSERT_TRUE(
      Detect(*store, store->Intern(Xp("a[q][r]//b", symbols)), bound, options)
          .ok());
  // Error path: an invalid ref is counted (one call, one error), not
  // dropped from the books — this is the bug this PR fixes. The second
  // call carries an unbound op: the invalid-ref check fires before the
  // unbound-op fallback, so it too lands in detector.errors.
  Result<ConflictReport> invalid = Detect(*store, PatternRef(), bound);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  Result<ConflictReport> invalid2 =
      Detect(*store, PatternRef(), UpdateOp::MakeInsert(Xp("a", symbols),
                                                        content));
  ASSERT_FALSE(invalid2.ok());

  const uint64_t calls = counter("detector.calls") - calls0;
  const uint64_t outcomes = (counter("detector.verdict.conflict") - conflict0) +
                            (counter("detector.verdict.no_conflict") -
                             no_conflict0) +
                            (counter("detector.verdict.unknown") - unknown0) +
                            (counter("detector.errors") - errors0);
  EXPECT_EQ(calls, outcomes);
  EXPECT_EQ(counter("detector.errors") - errors0, 2u);
  EXPECT_EQ(calls, 6u);
}

TEST(DetectHotCacheTest, RootDeleteGuardIsCentralized) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const Pattern root_only = Xp("a", symbols);       // O(p) == ROOT(p)
  const Pattern read = Xp("a//b", symbols);
  const PatternRef root_ref = store->Intern(root_only);
  const PatternRef read_ref = store->Intern(read);

  // The shared validator itself.
  EXPECT_FALSE(ValidateDeletePattern(root_only).ok());
  EXPECT_TRUE(ValidateDeletePattern(Xp("a/b", symbols)).ok());

  // Both factories.
  EXPECT_FALSE(UpdateOp::MakeDelete(root_only).ok());
  EXPECT_FALSE(UpdateOp::MakeDelete(store, root_ref).ok());

  // Direct calls into the linear detectors — the batch/lint bypass route.
  Result<ConflictReport> by_value =
      DetectLinearReadDeleteConflict(read, root_only);
  ASSERT_FALSE(by_value.ok());
  EXPECT_EQ(by_value.status().code(), StatusCode::kInvalidArgument);
  Result<ConflictReport> by_ref =
      DetectLinearReadDeleteConflict(*store, read_ref, root_ref);
  ASSERT_FALSE(by_ref.ok());
  EXPECT_EQ(by_ref.status().code(), StatusCode::kInvalidArgument);

  // The compiled core (what the batch engine's rewired SolvePair runs).
  const CompiledPattern read_compiled(read);
  const CompiledPattern del_compiled(root_only);
  Result<ConflictReport> compiled_core = DetectReadDeleteConflictCompiled(
      read_compiled, del_compiled, root_only);
  ASSERT_FALSE(compiled_core.ok());
  EXPECT_EQ(compiled_core.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectHotCacheTest, BatchEngineMatchesValueDetect) {
  auto symbols = NewSymbols();
  // The batch engine now routes SolvePair through the ref facade and the
  // compiled caches; cell-by-cell its verdicts must still equal the plain
  // value Detect on the canonicalized pair.
  BatchDetectorOptions batch_options;
  batch_options.num_threads = 4;
  BatchConflictDetector engine(batch_options);
  const std::shared_ptr<PatternStore>& store = engine.pattern_store();

  std::vector<Pattern> reads;
  for (const char* spec :
       {"a//b", "a/b", "a[b]//c", "b//a", "a//*/b", "a/a/b"}) {
    reads.push_back(Xp(spec, symbols));
  }
  const std::vector<UpdateOp> updates = [&] {
    auto content = std::make_shared<const Tree>(Xml("<a><b/></a>", symbols));
    std::vector<UpdateOp> out;
    out.push_back(UpdateOp::MakeInsert(Xp("a/b", symbols), content));
    out.push_back(UpdateOp::MakeInsert(Xp("b", symbols), content));
    Result<UpdateOp> del = UpdateOp::MakeDelete(Xp("a//b", symbols));
    EXPECT_TRUE(del.ok());
    out.push_back(*std::move(del));
    return out;
  }();

  const std::vector<SharedConflictResult> cells =
      engine.DetectMatrix(reads, updates);
  ASSERT_EQ(cells.size(), reads.size() * updates.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      const PatternRef read_ref = store->Intern(reads[i]);
      Result<ConflictReport> expected =
          Detect(store->pattern(read_ref), updates[j].Bind(store));
      ExpectSameReport(expected, *cells[i * updates.size() + j],
                       "cell " + std::to_string(i) + "," + std::to_string(j));
    }
  }
}

TEST(DetectHotCacheTest, BuildWitnessOffPreservesVerdicts) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<UpdateOp> updates = BoundUpdates(store, symbols);
  DetectorOptions with_witness;
  DetectorOptions without_witness;
  without_witness.build_witness = false;
  for (const char* spec : {"a//b", "a/b/c", "b//*", "a/a", "a[b]//c"}) {
    const PatternRef ref = store->Intern(Xp(spec, symbols));
    for (const UpdateOp& update : updates) {
      Result<ConflictReport> full = Detect(*store, ref, update, with_witness);
      Result<ConflictReport> lean =
          Detect(*store, ref, update, without_witness);
      ASSERT_EQ(full.ok(), lean.ok());
      if (!full.ok()) continue;
      EXPECT_EQ(full->verdict, lean->verdict) << spec;
      EXPECT_EQ(full->method, lean->method) << spec;
      EXPECT_EQ(full->detail, lean->detail) << spec;
      // Linear-path conflicts drop only the witness when disabled.
      if (lean->conflict() &&
          lean->method == DetectorMethod::kLinearPtime) {
        EXPECT_FALSE(lean->witness.has_value()) << spec;
        EXPECT_TRUE(full->witness.has_value()) << spec;
      }
    }
  }
}

}  // namespace
}  // namespace xmlup
