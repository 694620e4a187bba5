// Full-stack race stress: one shared Engine hammered from many threads
// mixing every class of operation the facade's thread-safety contract
// promises can coexist — hot-path Detect / CertifyCommute / Intern /
// Bind, per-thread session edit streams, and per-thread merges — then
// asserts the cross-thread invariants that synchronization bugs break
// first:
//
//   - verdict determinism: every thread that asked the same (read,
//     update) question got the same answer (the caches make verdicts a
//     pure function of the pair, never of scheduling);
//   - counter accounting: detector.calls == conflict + no_conflict +
//     unknown + errors, and at most one compiled-form build per interned
//     entry, over the whole concurrent window (via
//     MetricsSnapshot::DiffSince);
//   - store stability: re-interning the whole pattern set after the storm
//     adds nothing (interning deduplicated correctly under contention).
//
// The test is a tier-1 binary and runs in the full-suite TSan CI leg, so
// every lock and every relaxed atomic the storm touches is under the
// checker. Thread and iteration counts are sized for 1-core TSan runners.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conflict/detector.h"
#include "conflict/update_independence.h"
#include "conflict/update_op.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "merge/merge_executor.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "xml/isomorphism.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;
using testing_util::Xml;
using testing_util::Xp;

constexpr size_t kThreads = 8;
constexpr int kRounds = 3;

class RaceStressTest : public ::testing::Test {
 protected:
  static EngineOptions StressOptions() {
    // A tiny bounded-search budget and no witness construction keep the
    // NP-path questions cheap enough for 1-core TSan runners. Starved
    // searches land in kUnknown — a verdict bucket like any other for the
    // determinism and accounting invariants below, and one the test
    // *wants* represented.
    EngineOptions options;
    options.batch.detector.search.max_nodes = 3;
    options.batch.detector.build_witness = false;
    return options;
  }

  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  Engine engine_{symbols_, StressOptions()};

  Pattern P(const std::string& xpath) { return Xp(xpath, symbols_); }
  UpdateOp Del(const std::string& xpath) {
    return std::move(UpdateOp::MakeDelete(P(xpath)).value());
  }
  UpdateOp Ins(const std::string& xpath, const char* xml) {
    return UpdateOp::MakeInsert(
        P(xpath), std::make_shared<const Tree>(Xml(xml, symbols_)));
  }

  /// The fixed question set every thread asks. Mixes overlapping and
  /// disjoint pairs so the storm exercises all verdict buckets' counters.
  std::vector<Pattern> Reads() {
    return {P("shop/a//x"), P("shop/b"), P("shop//y"), P("q/r[s]")};
  }
  std::vector<UpdateOp> Updates() {
    return {Del("shop/a"), Ins("shop/b", "<n/>"), Del("shop//y"),
            Ins("q/r", "<s/>")};
  }

  /// Releases kThreads copies of `body` through a spin gate and joins
  /// them — the join is the happens-before edge for every assertion after.
  template <typename Body>
  void RunStorm(Body body) {
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) {
        }
        body(t);
      });
    }
    while (ready.load() != kThreads) {
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();
  }

  uint64_t Delta(const obs::MetricsSnapshot& diff, const char* name) {
    auto it = diff.counters.find(name);
    return it == diff.counters.end() ? 0u : it->second;
  }
};

TEST_F(RaceStressTest, MixedWorkloadKeepsVerdictsAndAccountingCoherent) {
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();
  const obs::MetricsSnapshot before = engine_.MetricsSnapshot();

  // Per-thread verdict logs for the shared question set; compared across
  // threads after the join.
  std::vector<std::vector<ConflictVerdict>> detect_log(kThreads);
  std::vector<std::vector<CommutativityCertificate>> commute_log(kThreads);
  std::atomic<int> failures{0};

  RunStorm([&](size_t t) {
    // Every thread interns the shared set (dedup under contention) and
    // binds its own op copies (Bind interns through the store too).
    std::vector<PatternRef> refs;
    for (const Pattern& read : reads) refs.push_back(engine_.Intern(read));
    std::vector<UpdateOp> bound;
    for (const UpdateOp& update : updates) bound.push_back(engine_.Bind(update));

    for (int round = 0; round < kRounds; ++round) {
      // Hot path: the full question matrix through the ref overload.
      for (const PatternRef ref : refs) {
        for (const UpdateOp& update : bound) {
          Result<ConflictReport> report = engine_.Detect(ref, update);
          if (!report.ok()) {
            failures.fetch_add(1);
            continue;
          }
          detect_log[t].push_back(report->verdict);
        }
      }
      // Update/update commutativity certificates.
      for (size_t i = 0; i < bound.size(); ++i) {
        for (size_t j = i + 1; j < bound.size(); ++j) {
          Result<IndependenceReport> cert =
              engine_.CertifyCommute(bound[i], bound[j]);
          if (!cert.ok()) {
            failures.fetch_add(1);
            continue;
          }
          commute_log[t].push_back(cert->certificate);
        }
      }
      // Session stream: a private single-writer matrix over the shared
      // store, edited while other threads detect and merge.
      std::unique_ptr<Engine::Session> session = engine_.MakeSession();
      session->matrix().Assign(reads, updates);
      session->matrix().ReplaceRead(0, reads[1]);
      session->matrix().RemoveRead(reads.size() - 1);
      if (session->matrix().num_reads() != reads.size() - 1) {
        failures.fetch_add(1);
      }
      // Merge: a private executor and tree over the shared engine.
      const MergeExecutor executor(&engine_);
      Tree tree = Xml("<shop><a/><b/></shop>", symbols_);
      const std::vector<std::vector<UpdateOp>> sessions = {
          {Ins("shop/a", "<m/>")}, {Ins("shop/b", "<n/>")}};
      Result<MergeReport> merged = executor.Merge(&tree, sessions);
      if (!merged.ok() ||
          merged->accepted + merged->serialized + merged->rejected !=
              merged->ops_total) {
        failures.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(failures.load(), 0);

  // Cross-thread determinism: every thread saw the identical verdict
  // sequence for the identical question sequence.
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(detect_log[t], detect_log[0]) << "thread " << t;
    EXPECT_EQ(commute_log[t], commute_log[0]) << "thread " << t;
  }
  ASSERT_EQ(detect_log[0].size(),
            static_cast<size_t>(kRounds) * Reads().size() * Updates().size());

  // Accounting invariants over the whole concurrent window. Relaxed
  // counter updates are allowed to be momentarily behind mid-storm; after
  // the joins above they must balance exactly.
  const obs::MetricsSnapshot diff = engine_.MetricsSnapshot().DiffSince(before);
  EXPECT_EQ(Delta(diff, "detector.errors"), 0u);
  EXPECT_EQ(Delta(diff, "detector.calls"),
            Delta(diff, "detector.verdict.conflict") +
                Delta(diff, "detector.verdict.no_conflict") +
                Delta(diff, "detector.verdict.unknown") +
                Delta(diff, "detector.errors"));
  // Every compiled-form build is counted at most once per interned entry
  // (the once-latch), no matter how many threads raced it.
  EXPECT_LE(Delta(diff, "store.nfa.misses"), engine_.store()->size());

  // Store stability: the storm interned everything; re-interning the full
  // set from the main thread must add nothing.
  const size_t size_after_storm = engine_.store()->size();
  for (const Pattern& read : Reads()) engine_.Intern(read);
  for (const UpdateOp& update : Updates()) engine_.Bind(update);
  EXPECT_EQ(engine_.store()->size(), size_after_storm);
}

TEST_F(RaceStressTest, SerializedBatchCallsInterleaveWithHotPath) {
  // Half the threads drive serialized entry points (DetectMatrix — the
  // facade serializes them on batch_mu_), half drive the lock-free hot
  // path; verdicts must agree between the two paths.
  const std::vector<Pattern> reads = Reads();
  const std::vector<UpdateOp> updates = Updates();

  // Reference verdicts, computed single-threaded through the hot path.
  std::vector<ConflictVerdict> reference;
  {
    std::vector<PatternRef> refs;
    for (const Pattern& read : reads) refs.push_back(engine_.Intern(read));
    for (const PatternRef ref : refs) {
      for (const UpdateOp& update : updates) {
        reference.push_back(engine_.Detect(ref, engine_.Bind(update))->verdict);
      }
    }
  }

  std::atomic<int> failures{0};
  RunStorm([&](size_t t) {
    for (int round = 0; round < kRounds; ++round) {
      if (t % 2 == 0) {
        const std::vector<SharedConflictResult> matrix =
            engine_.DetectMatrix(reads, updates);
        for (size_t k = 0; k < matrix.size(); ++k) {
          if (!matrix[k]->ok() || matrix[k]->value().verdict != reference[k]) {
            failures.fetch_add(1);
          }
        }
      } else {
        std::vector<PatternRef> refs;
        for (const Pattern& read : reads) refs.push_back(engine_.Intern(read));
        size_t k = 0;
        for (const PatternRef ref : refs) {
          for (const UpdateOp& update : updates) {
            Result<ConflictReport> report = engine_.Detect(ref, update);
            if (!report.ok() || report->verdict != reference[k]) {
              failures.fetch_add(1);
            }
            ++k;
          }
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xmlup
