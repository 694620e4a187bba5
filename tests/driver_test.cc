#include "driver/driver.h"

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "conflict/report.h"
#include "driver/workload_spec.h"
#include "engine/engine.h"
#include "gtest/gtest.h"

namespace xmlup {
namespace driver {
namespace {

/// A small mixed workload: closed warmup, closed ramp, open steady state.
/// Sized to finish in well under a second so determinism runs repeat it.
constexpr char kSpecText[] = R"({
  "name": "test-reference",
  "seed": 42,
  "generator": {
    "alphabet_size": 3,
    "tree": {"target_size": 10, "max_depth": 6},
    "pattern": {"size": 4, "wildcard_prob": 0.3, "descendant_prob": 0.4}
  },
  "sessions": {"count": 2, "initial_reads": 2, "initial_updates": 2},
  "phases": [
    {"name": "warmup", "mode": "closed", "workers": 1, "ops": 30},
    {"name": "ramp", "mode": "closed", "workers": 4, "ops": 40,
     "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}},
    {"name": "steady", "mode": "open", "workers": 4, "ops": 40,
     "arrival_rate": 100000,
     "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}}
  ]
})";

WorkloadSpec Spec(const std::string& text = kSpecText) {
  Result<WorkloadSpec> spec = WorkloadSpec::Parse(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

DriverReport RunWith(size_t workers_override) {
  WorkloadSpec spec = Spec();
  if (workers_override > 0) {
    for (PhaseSpec& phase : spec.phases) phase.workers = workers_override;
  }
  Engine engine;
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

/// The detect ops of a phase plan, in arrival order.
std::vector<const DetectUnit*> Detects(const PhasePlan& plan) {
  std::vector<const DetectUnit*> detects;
  for (const PlannedOp& op : plan.ops) {
    if (const auto* detect = std::get_if<DetectUnit>(&op)) {
      detects.push_back(detect);
    }
  }
  return detects;
}

void ExpectSameOutcome(const DriverReport& a, const DriverReport& b) {
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t p = 0; p < a.phases.size(); ++p) {
    SCOPED_TRACE(a.phases[p].name);
    EXPECT_EQ(a.phases[p].ops_planned, b.phases[p].ops_planned);
    EXPECT_EQ(a.phases[p].ops_completed, b.phases[p].ops_completed);
    EXPECT_FALSE(a.phases[p].truncated);
    EXPECT_FALSE(b.phases[p].truncated);
    EXPECT_EQ(a.phases[p].verdicts, b.phases[p].verdicts);
    EXPECT_EQ(a.phases[p].merge, b.phases[p].merge);
  }
  EXPECT_EQ(a.total_verdicts, b.total_verdicts);
}

TEST(DriverSpecTest, RoundTripIsIdentity) {
  const WorkloadSpec spec = Spec();
  Result<WorkloadSpec> reparsed = WorkloadSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, spec);
  Result<WorkloadSpec> from_text =
      WorkloadSpec::Parse(WriteJsonPretty(spec.ToJson()));
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  EXPECT_EQ(*from_text, spec);
}

TEST(DriverSpecTest, MalformedSpecsAreRejected) {
  auto fails = [](const std::string& text) {
    return !WorkloadSpec::Parse(text).ok();
  };
  EXPECT_TRUE(fails(""));                          // not JSON
  EXPECT_TRUE(fails("[]"));                        // not an object
  EXPECT_TRUE(fails("{}"));                        // no phases
  EXPECT_TRUE(fails(R"({"phases": []})"));         // empty phases
  EXPECT_TRUE(fails(R"({"phases": 3})"));          // wrong type
  EXPECT_TRUE(fails(R"({"phases": [{}], "sead": 1})"));  // top-level typo
  EXPECT_TRUE(fails(R"({"phases": [{"wrokers": 2}]})"));  // phase typo
  EXPECT_TRUE(fails(R"({"phases": [{"workers": 0}]})"));
  EXPECT_TRUE(fails(R"({"phases": [{"ops": 0}]})"));
  EXPECT_TRUE(fails(R"({"phases": [{"mode": "opne"}]})"));
  // Open-loop without a rate / closed-loop with one.
  EXPECT_TRUE(fails(R"({"phases": [{"mode": "open"}]})"));
  EXPECT_TRUE(
      fails(R"({"phases": [{"mode": "closed", "arrival_rate": 10}]})"));
  // All-zero mix.
  EXPECT_TRUE(fails(
      R"({"phases": [{"mix": {"insert": 0, "delete": 0, "edit": 0}}]})"));
  // Bad nested generator block.
  EXPECT_TRUE(fails(
      R"({"generator": {"pattern": {"size": 0}}, "phases": [{}]})"));
  // Edit mix with zero sessions.
  EXPECT_TRUE(fails(
      R"({"sessions": {"count": 0},
          "phases": [{"mix": {"insert": 0, "delete": 0, "edit": 1}}]})"));
  // Settings the driver has no use for: no catalog or program generator,
  // an always-installed schema, one merge policy.
  EXPECT_TRUE(fails(
      R"({"generator": {"program": {"num_statements": 6}}, "phases": [{}]})"));
  EXPECT_TRUE(fails(
      R"({"generator": {"catalog": {"num_books": 5}}, "phases": [{}]})"));
  EXPECT_TRUE(fails(
      R"({"dtd": {"declarations": ["root a0"], "pruning": true},
          "phases": [{}]})"));
  EXPECT_TRUE(fails(
      R"({"phases": [{"kind": "merge", "merge": {"reject": false}}]})"));

  // And the minimal valid spec parses.
  EXPECT_FALSE(fails(R"({"phases": [{}]})"));
}

/// kSpecText plus a schema block over the generator's a0..a2 alphabet:
/// a2 is unreachable from the pinned root, so a slice of the generated
/// reads is schema-dead and Stage 0 fires during the run.
constexpr char kTypedSpecText[] = R"({
  "name": "typed-test",
  "seed": 42,
  "generator": {
    "alphabet_size": 3,
    "tree": {"target_size": 10, "max_depth": 6},
    "pattern": {"size": 4, "wildcard_prob": 0.3, "descendant_prob": 0.4}
  },
  "dtd": {
    "declarations": ["root a0", "allow a0 : a1", "allow a1 : a1"]
  },
  "sessions": {"count": 2, "initial_reads": 2, "initial_updates": 2},
  "phases": [
    {"name": "warmup", "mode": "closed", "workers": 1, "ops": 30},
    {"name": "steady", "mode": "closed", "workers": 4, "ops": 40,
     "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}}
  ]
})";

TEST(DriverSpecTest, DtdBlockRoundTripsAndValidates) {
  const WorkloadSpec spec = Spec(kTypedSpecText);
  ASSERT_TRUE(spec.dtd.enabled());
  EXPECT_EQ(spec.dtd.declarations.size(), 3u);
  Result<WorkloadSpec> reparsed = WorkloadSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, spec);

  auto fails = [](const std::string& text) {
    return !WorkloadSpec::Parse(text).ok();
  };
  // Empty declarations (omit the block instead), wrong types, key typos.
  EXPECT_TRUE(fails(
      R"({"dtd": {"declarations": []}, "phases": [{}]})"));
  EXPECT_TRUE(fails(
      R"({"dtd": {"declarations": "root a0"}, "phases": [{}]})"));
  EXPECT_TRUE(fails(
      R"({"dtd": {"declarations": ["root a0"], "prunning": true},
          "phases": [{}]})"));
}

TEST(DriverSpecTest, EngineOptionsForSpecParsesTheSchema) {
  const WorkloadSpec spec = Spec(kTypedSpecText);
  auto symbols = std::make_shared<SymbolTable>();
  Result<EngineOptions> options = EngineOptionsForSpec(spec, symbols);
  ASSERT_TRUE(options.ok()) << options.status();
  ASSERT_NE(options->dtd, nullptr);
  EXPECT_EQ(options->dtd->root_label(), symbols->Intern("a0"));

  // A spec without a block passes `base` through untouched.
  Result<EngineOptions> plain = EngineOptionsForSpec(Spec(), symbols);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->dtd, nullptr);

  // Malformed declarations fail at parse, with the offending line's error.
  WorkloadSpec bad = spec;
  bad.dtd.declarations = {"frobnicate a0"};
  EXPECT_FALSE(EngineOptionsForSpec(bad, symbols).ok());
}

TEST(DriverTest, TypedSpecPrunesAndStaysDeterministic) {
  auto run = [&](size_t workers) {
    WorkloadSpec spec = Spec(kTypedSpecText);
    for (PhaseSpec& phase : spec.phases) phase.workers = workers;
    auto symbols = std::make_shared<SymbolTable>();
    Result<EngineOptions> options = EngineOptionsForSpec(spec, symbols);
    EXPECT_TRUE(options.ok()) << options.status();
    Engine engine(symbols, std::move(*options));
    Driver driver(&engine, spec);
    Result<DriverReport> report = driver.Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::make_pair(*report, engine.MetricsSnapshot().counters
                                       ["detector.method.type_pruned"]);
  };
  const auto [serial, serial_pruned] = run(1);
  const auto [parallel, parallel_pruned] = run(4);
  ExpectSameOutcome(serial, parallel);
  // a2-labeled reads are schema-dead under the spec's schema, so the run
  // must actually exercise Stage 0 (the counter is process-global and
  // monotone; both runs contribute).
  EXPECT_GT(parallel_pruned, 0u);
  (void)serial_pruned;
}

TEST(DriverTest, SameSeedSameReportAcrossRuns) {
  ExpectSameOutcome(RunWith(0), RunWith(0));
}

TEST(DriverTest, VerdictsEquivalentAtOneAndEightWorkers) {
  // The acceptance bar: per-phase op counts and verdict tallies are a
  // function of (spec, seed) alone — worker count only changes timing.
  ExpectSameOutcome(RunWith(1), RunWith(8));
}

TEST(DriverTest, DifferentSeedsGiveDifferentPlans) {
  WorkloadSpec a = Spec();
  WorkloadSpec b = Spec();
  b.seed = 43;
  Engine engine_a;
  Engine engine_b;
  Result<WorkloadPlan> plan_a = Driver::BuildPlan(a, &engine_a);
  Result<WorkloadPlan> plan_b = Driver::BuildPlan(b, &engine_b);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  // Detect/edit split depends on the seed's weighted draws.
  bool any_difference = false;
  for (size_t p = 0; p < plan_a->phases.size(); ++p) {
    any_difference = any_difference || Detects(plan_a->phases[p]).size() !=
                                           Detects(plan_b->phases[p]).size();
  }
  EXPECT_TRUE(any_difference);
}

TEST(DriverTest, DetectVerdictsMatchBatchOracle) {
  // Pure-detect spec (no edits): every planned pair replayed through the
  // batch matrix engine must tally to exactly the driver's verdicts.
  WorkloadSpec spec = Spec(R"({
    "seed": 7,
    "generator": {"pattern": {"size": 4}, "tree": {"target_size": 8}},
    "phases": [{"name": "only", "workers": 4, "ops": 50,
                "mix": {"insert": 0.5, "delete": 0.5, "edit": 0}}]
  })");

  Engine engine;
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->phases.size(), 1u);
  EXPECT_EQ(report->phases[0].ops_completed, 50u);

  // Replay: BuildPlan is deterministic, so a fresh engine sees the same
  // pairs; the batch engine is the independent oracle.
  Engine oracle_engine;
  Result<WorkloadPlan> plan = Driver::BuildPlan(spec, &oracle_engine);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->phases.size(), 1u);
  const std::vector<const DetectUnit*> detects = Detects(plan->phases[0]);
  ASSERT_EQ(detects.size(), 50u);

  VerdictTally oracle;
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;
  std::vector<ReadUpdatePair> pairs;
  for (size_t k = 0; k < detects.size(); ++k) {
    reads.push_back(detects[k]->read);
    updates.push_back(detects[k]->update);
    pairs.push_back({k, k});
  }
  const std::vector<SharedConflictResult> cells =
      oracle_engine.DetectPairs(reads, updates, pairs);
  for (const SharedConflictResult& cell : cells) {
    if (!cell->ok()) {
      ++oracle.errors;
    } else if ((*cell)->verdict == ConflictVerdict::kConflict) {
      ++oracle.conflict;
    } else if ((*cell)->verdict == ConflictVerdict::kNoConflict) {
      ++oracle.no_conflict;
    } else {
      ++oracle.unknown;
    }
  }
  EXPECT_EQ(report->phases[0].verdicts, oracle);
  EXPECT_EQ(oracle.total(), 50u);
}

TEST(DriverTest, ReportCarriesThroughputLatencyAndMetrics) {
  const DriverReport report = RunWith(2);
  for (const PhaseReport& phase : report.phases) {
    SCOPED_TRACE(phase.name);
    EXPECT_EQ(phase.ops_completed, phase.ops_planned);
    EXPECT_GT(phase.wall_seconds, 0.0);
    EXPECT_GT(phase.throughput_ops_per_s, 0.0);
    EXPECT_EQ(phase.latency.count, phase.ops_completed);
    EXPECT_LE(phase.latency.p50_us, phase.latency.p95_us);
    EXPECT_LE(phase.latency.p95_us, phase.latency.p99_us);
    EXPECT_LE(phase.latency.p99_us,
              static_cast<double>(phase.latency.max_us) + 1.0);
    // The per-phase metrics diff shows engine activity (detector calls).
    uint64_t detector_activity = 0;
    for (const auto& [name, value] : phase.metrics_delta.counters) {
      if (value > 0) detector_activity += value;
    }
    EXPECT_GT(detector_activity, 0u);
  }
  // The report serializes to the JSON envelope the bench validator reads.
  const JsonValue json = report.ToJson();
  EXPECT_NE(json.Find("phases"), nullptr);
  EXPECT_EQ(json.Find("phases")->AsArray().size(), report.phases.size());
  EXPECT_NE(json.Find("total_verdicts"), nullptr);
}

/// A kind:"merge" phase: each of the 6 units merges 3 concurrent sessions
/// of 2 ops through the MergeExecutor.
constexpr char kMergeSpecText[] = R"({
  "name": "merge-test",
  "seed": 11,
  "generator": {
    "alphabet_size": 3,
    "tree": {"target_size": 8, "max_depth": 5},
    "pattern": {"size": 3, "wildcard_prob": 0.2, "descendant_prob": 0.3}
  },
  "phases": [
    {"name": "merge", "mode": "closed", "kind": "merge", "workers": 2,
     "ops": 6, "merge": {"sessions": 3, "ops_per_session": 2, "threads": 2}}
  ]
})";

TEST(DriverSpecTest, MergeSpecRoundTripsAndValidates) {
  const WorkloadSpec spec = Spec(kMergeSpecText);
  ASSERT_EQ(spec.phases.size(), 1u);
  EXPECT_EQ(spec.phases[0].kind, PhaseKind::kMerge);
  EXPECT_EQ(spec.phases[0].merge.sessions, 3u);
  EXPECT_EQ(spec.phases[0].merge.ops_per_session, 2u);
  EXPECT_EQ(spec.phases[0].merge.threads, 2u);
  Result<WorkloadSpec> reparsed = WorkloadSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, spec);

  auto fails = [](const std::string& text) {
    return !WorkloadSpec::Parse(text).ok();
  };
  EXPECT_TRUE(fails(R"({"phases": [{"kind": "mrege"}]})"));
  // Merge phases don't draw from a mix; ops phases don't take a merge
  // block.
  EXPECT_TRUE(fails(
      R"({"phases": [{"kind": "merge", "mix": {"insert": 1}}]})"));
  EXPECT_TRUE(fails(
      R"({"phases": [{"merge": {"sessions": 2}}]})"));
  EXPECT_TRUE(fails(
      R"({"phases": [{"kind": "merge", "merge": {"sessions": 0}}]})"));
  EXPECT_TRUE(fails(
      R"({"phases": [{"kind": "merge", "merge": {"ops_per_session": 0}}]})"));
  // A bare merge phase (defaults for the merge block) is valid.
  EXPECT_FALSE(fails(R"({"phases": [{"kind": "merge"}]})"));
}

TEST(DriverTest, MergePhaseRunsDeterministically) {
  // Merge tallies, like verdict tallies, are a function of (spec, seed)
  // alone. The engines cap the certificate search budget: inconclusive
  // pairs then serialize instead of burning the full witness-search
  // bound, which changes nothing about what this test checks.
  auto run = [](size_t workers) {
    WorkloadSpec spec = Spec(kMergeSpecText);
    spec.phases[0].workers = workers;
    EngineOptions options;
    options.batch.detector.search.max_trees = 2'000;
    options.batch.detector.build_witness = false;
    Engine engine(std::make_shared<SymbolTable>(), std::move(options));
    Driver driver(&engine, spec);
    Result<DriverReport> report = driver.Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return *report;
  };
  const DriverReport serial = run(1);
  const DriverReport parallel = run(4);
  ExpectSameOutcome(serial, parallel);

  ASSERT_EQ(serial.phases.size(), 1u);
  const MergeTally& merge = serial.phases[0].merge;
  EXPECT_EQ(serial.phases[0].ops_completed, 6u);
  EXPECT_EQ(merge.errors, 0u);
  EXPECT_EQ(merge.merges, 6u);
  EXPECT_EQ(merge.ops_total, 6u * 3u * 2u);
  // The tally accounting identity the bench validator also enforces.
  EXPECT_EQ(merge.accepted + merge.serialized + merge.rejected,
            merge.ops_total);

  // The merge block reaches the phase's JSON report.
  const JsonValue json = serial.phases[0].ToJson();
  ASSERT_NE(json.Find("merge"), nullptr);
  EXPECT_NE(json.Find("merge")->Find("merges"), nullptr);
}

TEST(DriverTest, OpenLoopOverloadStaysAnchored) {
  // Deliberately overloaded open loop: 150 arrivals scheduled 1µs apart
  // (rate 1e6/s) against a single worker whose per-op service time is
  // orders of magnitude larger. The pacer must keep waits anchored to the
  // phase start — never re-anchoring to "now", never hanging on a
  // negative wait — so the phase completes every op, and each op's
  // latency is measured from its *scheduled* arrival (coordinated-
  // omission-safe): queueing delay accumulates linearly and the mean
  // approaches half the wall time. A drifting pacer would instead report
  // per-op service times, collapsing the mean to wall/ops.
  WorkloadSpec spec = Spec(R"({
    "seed": 5,
    "generator": {"pattern": {"size": 4}, "tree": {"target_size": 8}},
    "phases": [{"name": "overload", "mode": "open", "workers": 1,
                "ops": 150, "arrival_rate": 1000000.0,
                "mix": {"insert": 0.5, "delete": 0.5, "edit": 0}}]
  })");
  Engine engine;
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->phases.size(), 1u);
  const PhaseReport& phase = report->phases[0];
  EXPECT_FALSE(phase.truncated);
  EXPECT_EQ(phase.ops_completed, 150u);
  EXPECT_EQ(phase.latency.count, 150u);
  const double wall_us = phase.wall_seconds * 1e6;
  EXPECT_GT(phase.latency.mean_us, 0.2 * wall_us);
  EXPECT_LE(phase.latency.mean_us,
            static_cast<double>(phase.latency.max_us));
}

TEST(DriverTest, OpenLoopTailIsServiceTime) {
  // An open phase the engine keeps up with: 200 arrivals at 400/s, with
  // session edits interleaved among the detects. Slots are claimed in
  // arrival order whatever their kind, so no op waits behind later
  // arrivals and the tail is service time, not the phase's length. The
  // small search budget keeps every op cheap, also under sanitizers.
  WorkloadSpec spec = Spec(R"({
    "seed": 42,
    "generator": {
      "alphabet_size": 3,
      "tree": {"target_size": 10, "max_depth": 6},
      "pattern": {"size": 4, "wildcard_prob": 0.3, "descendant_prob": 0.4}
    },
    "sessions": {"count": 2, "initial_reads": 2, "initial_updates": 2},
    "phases": [{"name": "steady", "mode": "open", "workers": 4, "ops": 200,
                "arrival_rate": 400,
                "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}}]
  })");
  EngineOptions options;
  options.batch.detector.search.max_nodes = 3;
  Engine engine(std::make_shared<SymbolTable>(), std::move(options));
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  const PhaseReport& phase = report->phases[0];
  EXPECT_FALSE(phase.truncated);
  EXPECT_EQ(phase.ops_completed, 200u);
  EXPECT_LT(phase.latency.p99_us, 100'000.0);
}

TEST(DriverTest, MaxDurationCapsAnOpenPhase) {
  // 20 arrivals at 10/s span 1.9 s; the 0.2 s cap must end the phase
  // without sleeping through the arrivals it skips, session edits
  // included.
  WorkloadSpec spec = Spec(R"({
    "seed": 3,
    "generator": {"pattern": {"size": 4}, "tree": {"target_size": 8}},
    "phases": [{"name": "capped", "mode": "open", "workers": 2, "ops": 20,
                "arrival_rate": 10, "max_duration_s": 0.2,
                "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}}]
  })");
  EngineOptions options;
  options.batch.detector.search.max_nodes = 3;
  Engine engine(std::make_shared<SymbolTable>(), std::move(options));
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  const PhaseReport& phase = report->phases[0];
  EXPECT_TRUE(phase.truncated);
  EXPECT_LT(phase.ops_completed, 20u);
  EXPECT_LT(phase.wall_seconds, 1.0);
}

TEST(DriverTest, MaxDurationTruncatesInsteadOfHanging) {
  WorkloadSpec spec = Spec();
  spec.phases.resize(1);
  spec.phases[0].max_duration_s = 1e-9;  // expires immediately
  Engine engine;
  Driver driver(&engine, spec);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->phases[0].truncated);
  EXPECT_LT(report->phases[0].ops_completed, report->phases[0].ops_planned);
}

}  // namespace
}  // namespace driver
}  // namespace xmlup
