// The merge executor's correctness harness (the tinyqv ris-test idiom):
// generate random concurrent schedules — a seed tree plus N per-session
// update streams — run the conflict-aware merge, and compare the merged
// tree's canonical code against a sequential reference execution of the
// same admitted ops in serial order. Every schedule additionally runs at
// 1 and 8 evaluation threads and must produce byte-identical reports and
// merged trees (the executor's determinism contract).
//
// Coverage: >= 200 schedules across session counts {2, 4, 8}, two
// conflict regimes (a wide alphabet with few wildcards barely collides; a
// 2-letter alphabet with frequent wildcards and descendant edges collides
// constantly), and both conflict policies.
//
// The merge certifies each distinct ordered pair of op identities once.
// Every schedule is also checked against a scan of its own that certifies
// every pair: pairs_certified, cert_errors, levels, and every op's outcome
// and detail must agree.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "conflict/update_independence.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "merge/merge_executor.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

using testing_util::NewSymbols;

struct Regime {
  const char* name;
  size_t alphabet = 8;
  double wildcard_prob = 0.05;
  double descendant_prob = 0.2;
};

constexpr Regime kLowConflict = {"low", 8, 0.05, 0.2};
constexpr Regime kHighConflict = {"high", 2, 0.3, 0.5};

/// The harness runs thousands of certificate calls; the default bounded-
/// search budget (2M trees per inconclusive pair) would dominate the
/// suite's runtime without changing what it tests. Capping the budget is
/// sound — pairs the search can no longer settle come back kUnknown and
/// the executor serializes them, which the oracle covers anyway — and
/// witness construction is verdict-irrelevant.
EngineOptions FastCertOptions() {
  EngineOptions options;
  options.batch.detector.search.max_trees = 2'000;
  options.batch.detector.build_witness = false;
  return options;
}

/// What the merge report must say when every pair is certified with a
/// call of its own, in serial order.
struct AllPairsReference {
  size_t pairs_certified = 0;
  size_t cert_errors = 0;
  size_t levels = 0;
  std::vector<MergeOutcome> outcomes;
  std::vector<std::string> details;
};

AllPairsReference CertifyEveryPair(
    Engine& engine, const std::vector<std::vector<UpdateOp>>& sessions,
    ConflictPolicy policy) {
  struct Op {
    size_t session;
    size_t index;
    UpdateOp op;
  };
  std::vector<Op> ops;
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (size_t k = 0; k < sessions[s].size(); ++k) {
      ops.push_back({s, k, engine.Bind(sessions[s][k])});
    }
  }
  const size_t n = ops.size();
  AllPairsReference ref;
  ref.details.assign(n, "");
  // Uncertified pairs in (i, j) order.
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const Result<IndependenceReport> cert =
          engine.CertifyCommute(ops[i].op, ops[j].op);
      std::string why;
      if (!cert.ok()) {
        ++ref.cert_errors;
        why = cert.status().ToString();
      } else if (cert->certificate == CommutativityCertificate::kCertified) {
        ++ref.pairs_certified;
        continue;
      } else {
        why = std::string(cert->detail);
      }
      edges.emplace_back(i, j);
      if (ops[i].session == ops[j].session) continue;
      auto partner = [&](const Op& other) {
        return "uncertified against session " + std::to_string(other.session) +
               " op " + std::to_string(other.index) + ": " + why;
      };
      if (ref.details[i].empty()) ref.details[i] = partner(ops[j]);
      if (ref.details[j].empty()) ref.details[j] = partner(ops[i]);
    }
  }
  // First committer wins: an op with a cross-session edge from an earlier
  // admitted op is dropped.
  std::vector<bool> rejected(n, false);
  if (policy == ConflictPolicy::kReject) {
    for (const auto& [i, j] : edges) {
      if (ops[i].session != ops[j].session && !rejected[i]) rejected[j] = true;
    }
  }
  // Levels: the longest path of surviving edges into each op.
  std::vector<size_t> level(n, 0);
  std::vector<bool> serialized(n, false);
  for (const auto& [i, j] : edges) {
    if (rejected[i] || rejected[j]) continue;
    level[j] = std::max(level[j], level[i] + 1);
    if (ops[i].session != ops[j].session) serialized[i] = serialized[j] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    if (rejected[i]) {
      ref.outcomes.push_back(MergeOutcome::kRejected);
      continue;
    }
    ref.levels = std::max(ref.levels, level[i] + 1);
    if (serialized[i]) {
      ref.outcomes.push_back(MergeOutcome::kSerialized);
    } else {
      ref.outcomes.push_back(MergeOutcome::kAccepted);
      ref.details[i].clear();
    }
  }
  return ref;
}

class MergeOracleTest : public ::testing::Test {
 protected:
  std::shared_ptr<SymbolTable> symbols_ = NewSymbols();
  Engine engine_{symbols_, FastCertOptions()};

  UpdateOp RandomOp(const RandomPatternGenerator& patterns,
                    const RandomTreeGenerator& content, Rng* rng) {
    if (rng->NextBool(0.5)) {
      return UpdateOp::MakeInsert(
          patterns.GenerateBranching(rng),
          std::make_shared<const Tree>(content.Generate(rng)));
    }
    Result<UpdateOp> del =
        UpdateOp::MakeDelete(patterns.GenerateBranchingNonRootOutput(rng));
    EXPECT_TRUE(del.ok());  // non-root output by construction
    return *std::move(del);
  }

  /// Runs `schedules` random schedules with `num_sessions` streams under
  /// `regime`, checking every schedule against the serial oracle and the
  /// 1-vs-8-thread determinism contract.
  void RunSweep(const Regime& regime, size_t num_sessions, size_t schedules,
                ConflictPolicy policy, uint64_t seed) {
    const std::vector<Label> alphabet =
        RandomTreeGenerator::MakeAlphabet(symbols_.get(), regime.alphabet);
    TreeGenOptions tree_options;
    tree_options.target_size = 10;
    tree_options.alphabet = alphabet;
    TreeGenOptions content_options;
    content_options.target_size = 3;
    content_options.alphabet = alphabet;
    PatternGenOptions pattern_options;
    pattern_options.size = 3;
    pattern_options.wildcard_prob = regime.wildcard_prob;
    pattern_options.descendant_prob = regime.descendant_prob;
    pattern_options.alphabet = alphabet;
    const RandomTreeGenerator trees(symbols_, tree_options);
    const RandomTreeGenerator content(symbols_, content_options);
    const RandomPatternGenerator patterns(symbols_, pattern_options);

    MergeOptions one;
    one.num_threads = 1;
    one.policy = policy;
    MergeOptions eight;
    eight.num_threads = 8;
    eight.policy = policy;
    const MergeExecutor ex1(&engine_, one);
    const MergeExecutor ex8(&engine_, eight);

    Rng rng(seed);
    size_t serialized_total = 0;
    obs::Counter& pairs_checked =
        obs::MetricsRegistry::Default().GetCounter("merge.pairs_checked");
    obs::Counter& certificates =
        obs::MetricsRegistry::Default().GetCounter("merge.certificates");
    const uint64_t pairs_before = pairs_checked.value();
    const uint64_t certificates_before = certificates.value();
    for (size_t schedule = 0; schedule < schedules; ++schedule) {
      SCOPED_TRACE(std::string(regime.name) + " sessions=" +
                   std::to_string(num_sessions) +
                   " schedule=" + std::to_string(schedule));
      const Tree seed_tree = trees.Generate(&rng);
      std::vector<std::vector<UpdateOp>> sessions(num_sessions);
      for (auto& stream : sessions) {
        const size_t ops = 2 + rng.NextBounded(2);  // 2-3 ops per session
        for (size_t k = 0; k < ops; ++k) {
          stream.push_back(RandomOp(patterns, content, &rng));
        }
      }

      Tree merged1 = CopyTree(seed_tree);
      Result<MergeReport> r1 = ex1.Merge(&merged1, sessions);
      ASSERT_TRUE(r1.ok()) << r1.status();
      Tree merged8 = CopyTree(seed_tree);
      Result<MergeReport> r8 = ex8.Merge(&merged8, sessions);
      ASSERT_TRUE(r8.ok()) << r8.status();

      // Determinism: reports and trees byte-identical across thread counts.
      ASSERT_EQ(WriteJson(r1->ToJson()), WriteJson(r8->ToJson()));
      ASSERT_TRUE(OrderedEqual(merged1, merged8));

      // The serial oracle: the same admitted ops applied one at a time in
      // (session, index) order must give a value-equal document.
      Tree reference = CopyTree(seed_tree);
      ApplySerialReference(&reference, sessions, *r1);
      ASSERT_EQ(CanonicalCode(merged1), CanonicalCode(reference));

      ASSERT_EQ(r1->accepted + r1->serialized + r1->rejected, r1->ops_total);
      ASSERT_EQ(r1->cert_errors, 0u);

      // One certificate per distinct ordered op pair answers every pair
      // as its own certificate would.
      const AllPairsReference all_pairs =
          CertifyEveryPair(engine_, sessions, policy);
      ASSERT_EQ(r1->pairs_certified, all_pairs.pairs_certified);
      ASSERT_EQ(r1->cert_errors, all_pairs.cert_errors);
      ASSERT_EQ(r1->levels, all_pairs.levels);
      ASSERT_EQ(r1->ops.size(), all_pairs.details.size());
      for (size_t i = 0; i < r1->ops.size(); ++i) {
        EXPECT_EQ(r1->ops[i].outcome, all_pairs.outcomes[i]) << "op " << i;
        EXPECT_EQ(r1->ops[i].detail, all_pairs.details[i]) << "op " << i;
      }
      serialized_total += r1->serialized + r1->rejected;
    }
    if (regime.alphabet <= 2) {
      // The high-conflict regime must actually exercise the conflict
      // paths; an all-accepted sweep would be testing nothing.
      EXPECT_GT(serialized_total, 0u);
      // Its small alphabet also repeats ops within a schedule of 8 or more
      // ops, so some pairs there must be answered by an identical pair's
      // certificate.
      if (num_sessions >= 4) {
        EXPECT_LT(certificates.value() - certificates_before,
                  pairs_checked.value() - pairs_before);
      }
    }
  }
};

TEST_F(MergeOracleTest, LowConflictSessions2) {
  RunSweep(kLowConflict, 2, 40, ConflictPolicy::kSerialize, 101);
}
TEST_F(MergeOracleTest, LowConflictSessions4) {
  RunSweep(kLowConflict, 4, 25, ConflictPolicy::kSerialize, 102);
}
TEST_F(MergeOracleTest, LowConflictSessions8) {
  RunSweep(kLowConflict, 8, 10, ConflictPolicy::kSerialize, 103);
}
TEST_F(MergeOracleTest, HighConflictSessions2) {
  RunSweep(kHighConflict, 2, 40, ConflictPolicy::kSerialize, 201);
}
TEST_F(MergeOracleTest, HighConflictSessions4) {
  RunSweep(kHighConflict, 4, 25, ConflictPolicy::kSerialize, 202);
}
TEST_F(MergeOracleTest, HighConflictSessions8) {
  RunSweep(kHighConflict, 8, 10, ConflictPolicy::kSerialize, 203);
}
TEST_F(MergeOracleTest, RejectPolicyLowConflict) {
  RunSweep(kLowConflict, 4, 20, ConflictPolicy::kReject, 301);
}
TEST_F(MergeOracleTest, RejectPolicyHighConflict) {
  RunSweep(kHighConflict, 2, 20, ConflictPolicy::kReject, 302);
  RunSweep(kHighConflict, 4, 15, ConflictPolicy::kReject, 303);
}

}  // namespace
}  // namespace xmlup
