// The ref-based hot path (PatternStore::compiled + the DP matcher) is the
// one detection path: the value facade interns into a call-local store and
// runs it too. These tests check it against the *definition* — the
// Lemma 1 witness checkers and the exhaustive small-tree search — over an
// exhaustive small-pattern sweep, check determinism under 8-way
// concurrency on one shared store, and cover the error paths: the
// detector accounting invariant (calls == conflict + no_conflict +
// unknown + errors), the store.nfa.* counter contract, and the
// centralized root-delete guard on every entry point (factories, value
// and compiled detectors).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conflict/bounded_search.h"
#include "conflict/detector.h"
#include "conflict/read_delete.h"
#include "conflict/read_insert.h"
#include "conflict/witness_check.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern_store.h"
#include "tests/test_util.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

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

/// A fixed mixed update workload: inserts and deletes whose patterns and
/// content overlap the {a, b} read alphabet so the sweep hits conflicts,
/// no-conflicts and the wildcard classes.
std::vector<UpdateOp> Updates(const std::shared_ptr<SymbolTable>& symbols) {
  auto content_ab = std::make_shared<const Tree>(Xml("<a><b/></a>", symbols));
  auto content_b = std::make_shared<const Tree>(Xml("<b/>", symbols));
  std::vector<UpdateOp> updates;
  updates.push_back(UpdateOp::MakeInsert(Xp("a/b", symbols), content_ab));
  updates.push_back(UpdateOp::MakeInsert(Xp("a//b", symbols), content_b));
  updates.push_back(UpdateOp::MakeInsert(Xp("b", symbols), content_ab));
  for (const char* del : {"a/b", "a//*", "b//a"}) {
    Result<UpdateOp> op = UpdateOp::MakeDelete(Xp(del, symbols));
    EXPECT_TRUE(op.ok()) << del;
    updates.push_back(*std::move(op));
  }
  return updates;
}

/// Updates(symbols), bound to `store`.
std::vector<UpdateOp> BoundUpdates(
    const std::shared_ptr<PatternStore>& store,
    const std::shared_ptr<SymbolTable>& symbols) {
  std::vector<UpdateOp> bound;
  for (const UpdateOp& update : Updates(symbols)) {
    bound.push_back(update.Bind(store));
  }
  return bound;
}

/// Every linear read of at most 4 nodes over {a, b, *} against the fixed
/// updates, under node and value semantics, checked against the
/// definition: every conflict's witness passes the Lemma 1 checker on the
/// original patterns, and every pair for which the exhaustive search over
/// trees of at most 4 nodes finds a witness is reported as a conflict.
TEST(DetectHotCacheTest, ExhaustiveLinearSweepAgreesWithDefinition) {
  auto symbols = NewSymbols();
  auto store = std::make_shared<PatternStore>(symbols);
  const std::vector<Label> labels = {symbols->Intern("a"),
                                     symbols->Intern("b"), kWildcardLabel};
  // 3 + 18 + 108 + 648 linear chains over {a, b, *} with <= 4 nodes.
  const std::vector<Pattern> reads =
      EnumerateLinearPatterns(symbols, labels, 4);
  ASSERT_EQ(reads.size(), 777u);
  const std::vector<UpdateOp> updates = Updates(symbols);
  const std::vector<UpdateOp> bound = BoundUpdates(store, symbols);

  BoundedSearchOptions search;
  search.max_nodes = 4;
  for (const ConflictSemantics semantics :
       {ConflictSemantics::kNode, ConflictSemantics::kValue}) {
    DetectorOptions options;
    options.semantics = semantics;
    for (size_t i = 0; i < reads.size(); ++i) {
      const Pattern& read = reads[i];
      const PatternRef ref = store->Intern(read);
      for (size_t j = 0; j < updates.size(); ++j) {
        const std::string label = "semantics " +
                                  std::to_string(static_cast<int>(semantics)) +
                                  " read " + std::to_string(i) + " update " +
                                  std::to_string(j);
        Result<ConflictReport> report =
            Detect(*store, ref, bound[j], options);
        ASSERT_TRUE(report.ok()) << label << ": " << report.status();
        const UpdateOp& update = updates[j];
        const bool is_insert = update.kind() == UpdateOp::Kind::kInsert;
        if (report->conflict()) {
          ASSERT_TRUE(report->witness.has_value()) << label;
          EXPECT_TRUE(is_insert
                          ? IsReadInsertWitness(read, update.pattern(),
                                                update.content(),
                                                *report->witness, semantics)
                          : IsReadDeleteWitness(read, update.pattern(),
                                                *report->witness, semantics))
              << label;
        }
        const BruteForceResult brute =
            is_insert ? BruteForceReadInsertSearch(read, update.pattern(),
                                                   update.content(), semantics,
                                                   search)
                      : BruteForceReadDeleteSearch(read, update.pattern(),
                                                   semantics, search);
        if (brute.outcome == SearchOutcome::kWitnessFound) {
          EXPECT_TRUE(report->conflict()) << label;
        }
      }
    }
  }
}

TEST(DetectHotCacheTest, ConcurrentSharedStoreDeterminism) {
  auto symbols = NewSymbols();
  const std::vector<const char*> read_specs = {
      "a//b",       "a/b",     "a//*/b", "b//a",    "a[b]//c",
      "a[q]/b//c",  "*//b",    "a/a/b",  "a//b//*", "c/b/a",
  };
  DetectorOptions options;
  options.search.max_nodes = 4;
  std::vector<Pattern> reads;
  for (const char* spec : read_specs) reads.push_back(Xp(spec, symbols));

  // Expected reports, in pair order, from a one-thread run on a store of
  // its own: no compiled form or latch is shared with the legs below.
  std::vector<ConflictReport> expected;
  {
    auto reference_store = std::make_shared<PatternStore>(symbols);
    const std::vector<UpdateOp> updates =
        BoundUpdates(reference_store, symbols);
    for (const Pattern& read : reads) {
      const PatternRef ref = reference_store->Intern(read);
      for (const UpdateOp& update : updates) {
        Result<ConflictReport> r =
            Detect(*reference_store, ref, update, options);
        ASSERT_TRUE(r.ok());
        expected.push_back(std::move(r).value());
      }
    }
  }

  for (const size_t num_threads : {size_t{1}, size_t{8}}) {
    // A fresh store shared by all threads of a leg, so the 8-thread leg
    // races the compiled() latches on every entry rather than reusing the
    // 1-thread leg's.
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

  // Compiled forms are stable (same object on re-request).
  const CompiledPattern& again = store.compiled(refs[0]);
  EXPECT_EQ(&again, &store.compiled(refs[0]));
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
