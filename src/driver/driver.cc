#include "driver/driver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "conflict/conflict_matrix.h"
#include "conflict/report.h"
#include "merge/merge_executor.h"
#include "workload/pattern_generator.h"
#include "workload/tree_generator.h"
#include "xml/tree.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace driver {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedMicros(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Per-worker accumulation: plain (non-atomic) counters merged after the
/// join. Latency rides the same power-of-two bucketing as obs::Histogram
/// so the merged result is an obs::HistogramData and percentile extraction
/// is HistogramData::Quantile — but the buckets here are worker-local, so
/// they work identically under -DXMLUP_OBS_DISABLED and never mix phases.
struct WorkerTally {
  VerdictTally verdicts;
  MergeTally merge;
  std::array<uint64_t, obs::Histogram::kNumBuckets> latency_buckets{};
  uint64_t latency_count = 0;
  uint64_t latency_sum = 0;
  uint64_t latency_max = 0;
  uint64_t ops = 0;

  void RecordLatency(uint64_t us) {
    ++latency_buckets[obs::Histogram::BucketIndex(us)];
    ++latency_count;
    latency_sum += us;
    if (us > latency_max) latency_max = us;
  }

  void RecordVerdict(const Result<ConflictReport>& result) {
    if (!result.ok()) {
      ++verdicts.errors;
      return;
    }
    switch (result->verdict) {
      case ConflictVerdict::kNoConflict:
        ++verdicts.no_conflict;
        break;
      case ConflictVerdict::kConflict:
        ++verdicts.conflict;
        break;
      case ConflictVerdict::kUnknown:
        ++verdicts.unknown;
        break;
    }
  }

  void RecordSlice(const std::vector<SharedConflictResult>& slice) {
    for (const SharedConflictResult& cell : slice) RecordVerdict(*cell);
  }
};

/// Shared per-phase execution state; workers claim plan units through
/// `next_unit` (a detect op is one unit, a whole session edit stream is
/// one unit, so streams stay single-writer).
struct PhaseRun {
  const PhasePlan& plan;
  const PhaseSpec& spec;
  std::vector<std::unique_ptr<Engine::Session>>& sessions;
  Clock::time_point start;
  /// Absolute deadline; Clock::time_point::max() when uncapped.
  Clock::time_point deadline;
  std::atomic<size_t> next_unit{0};
  std::atomic<bool> truncated{false};

  PhaseRun(const PhasePlan& plan_in, const PhaseSpec& spec_in,
           std::vector<std::unique_ptr<Engine::Session>>& sessions_in)
      : plan(plan_in), spec(spec_in), sessions(sessions_in) {}

  /// The scheduled arrival of op `op_index`: phase start for closed-loop
  /// phases (no pacing), start + i/rate for open-loop ones.
  Clock::time_point Arrival(size_t op_index) const {
    if (spec.mode != PhaseMode::kOpen) return start;
    const double offset_us = 1e6 * static_cast<double>(op_index) /
                             spec.arrival_rate;
    return start + std::chrono::microseconds(
                       static_cast<int64_t>(offset_us));
  }

  /// Waits for the op's scheduled arrival (open loop), then checks the
  /// deadline. Returns the op's latency anchor — the scheduled arrival in
  /// open phases, issue time in closed ones — or nullopt when the phase is
  /// out of time (the caller stops issuing and the phase reports
  /// truncated).
  ///
  /// Overload audit: arrivals stay anchored to the fixed schedule
  /// (start + i/rate) no matter how far behind a worker falls — Arrival()
  /// never reads a completion time, so a slow op cannot drift later
  /// arrivals, and the sleep is guarded (skipped entirely for past
  /// arrivals) so there is no negative-wait accumulation. Latency measured
  /// from the returned anchor therefore charges queueing delay under
  /// overload to the ops that suffered it — the coordinated-omission-safe
  /// measurement. driver_test's OpenLoopOverloadStaysAnchored pins this.
  std::optional<Clock::time_point> PaceAndCheck(size_t op_index) {
    if (spec.mode == PhaseMode::kOpen) {
      const Clock::time_point arrival = Arrival(op_index);
      if (Clock::now() < arrival) std::this_thread::sleep_until(arrival);
    }
    if (Clock::now() > deadline) {
      // ordering: relaxed — a monotone sticky flag, only read after the
      // worker joins (the join supplies the happens-before edge).
      truncated.store(true, std::memory_order_relaxed);
      return std::nullopt;
    }
    return spec.mode == PhaseMode::kOpen ? Arrival(op_index) : Clock::now();
  }
};

void RunDetectUnit(const Engine& engine, PhaseRun& run, size_t unit,
                   WorkerTally& tally) {
  const size_t op_index = run.plan.detect_op_indices[unit];
  // Latency is measured from the anchor PaceAndCheck returns: the
  // scheduled arrival in open phases (so queueing behind a saturated
  // engine is charged, not omitted), issue time in closed ones.
  const std::optional<Clock::time_point> anchor = run.PaceAndCheck(op_index);
  if (!anchor.has_value()) return;
  const DetectUnit& detect = run.plan.detects[unit];
  const Clock::time_point from = *anchor;
  Result<ConflictReport> result = engine.Detect(detect.read, detect.update);
  tally.RecordVerdict(result);
  tally.RecordLatency(ElapsedMicros(from, Clock::now()));
  ++tally.ops;
}

void RunSessionStream(PhaseRun& run, size_t session_index,
                      WorkerTally& tally) {
  const SessionScript& script = run.plan.sessions[session_index];
  MaintainedConflictMatrix& matrix =
      run.sessions[session_index]->matrix();
  for (size_t k = 0; k < script.edits.size(); ++k) {
    const size_t op_index = script.op_indices[k];
    const std::optional<Clock::time_point> anchor = run.PaceAndCheck(op_index);
    if (!anchor.has_value()) return;
    const EditOp& edit = script.edits[k];
    const Clock::time_point from = *anchor;
    switch (edit.kind) {
      case EditOp::Kind::kAddRead:
        tally.RecordSlice(matrix.row(matrix.AddRead(*edit.pattern)));
        break;
      case EditOp::Kind::kAddUpdate:
        tally.RecordSlice(matrix.column(matrix.AddUpdate(*edit.update)));
        break;
      case EditOp::Kind::kReplaceRead:
        matrix.ReplaceRead(edit.index, *edit.pattern);
        tally.RecordSlice(matrix.row(edit.index));
        break;
      case EditOp::Kind::kReplaceUpdate:
        matrix.ReplaceUpdate(edit.index, *edit.update);
        tally.RecordSlice(matrix.column(edit.index));
        break;
      case EditOp::Kind::kRemoveRead:
        matrix.RemoveRead(edit.index);
        break;
      case EditOp::Kind::kRemoveUpdate:
        matrix.RemoveUpdate(edit.index);
        break;
    }
    tally.RecordLatency(ElapsedMicros(from, Clock::now()));
    ++tally.ops;
  }
}

void RunMergeUnit(Engine* engine, PhaseRun& run, size_t unit_index,
                  WorkerTally& tally) {
  const size_t op_index = run.plan.merge_op_indices[unit_index];
  const std::optional<Clock::time_point> anchor = run.PaceAndCheck(op_index);
  if (!anchor.has_value()) return;
  const MergeUnit& unit = run.plan.merges[unit_index];
  MergeOptions options;
  options.num_threads = run.spec.merge.threads;
  options.policy = run.spec.merge.reject ? ConflictPolicy::kReject
                                         : ConflictPolicy::kSerialize;
  const MergeExecutor executor(engine, options);
  // The plan stays immutable (re-runnable): each execution merges into a
  // private copy of the unit's seed tree.
  Tree working = CopyTree(unit.seed);
  const Result<MergeReport> report = executor.Merge(&working, unit.streams);
  if (!report.ok()) {
    ++tally.merge.errors;
  } else {
    ++tally.merge.merges;
    tally.merge.ops_total += report->ops_total;
    tally.merge.accepted += report->accepted;
    tally.merge.serialized += report->serialized;
    tally.merge.rejected += report->rejected;
  }
  tally.RecordLatency(ElapsedMicros(*anchor, Clock::now()));
  ++tally.ops;
}

LatencySummary SummarizeLatency(const std::vector<WorkerTally>& tallies) {
  obs::HistogramData data;
  std::array<uint64_t, obs::Histogram::kNumBuckets> merged{};
  LatencySummary summary;
  for (const WorkerTally& tally : tallies) {
    data.count += tally.latency_count;
    data.sum += tally.latency_sum;
    if (tally.latency_max > summary.max_us) summary.max_us = tally.latency_max;
    for (size_t i = 0; i < merged.size(); ++i) {
      merged[i] += tally.latency_buckets[i];
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i] > 0) {
      data.buckets.emplace_back(obs::Histogram::BucketUpperBound(i),
                                merged[i]);
    }
  }
  summary.count = data.count;
  summary.mean_us = data.Mean();
  // Interpolation can overshoot inside the top occupied bucket (the
  // bucket bound exceeds the largest observation); the exact max is a
  // tighter ceiling, so clamp the percentiles to it.
  const double max = static_cast<double>(summary.max_us);
  summary.p50_us = std::min(data.Quantile(0.50), max);
  summary.p95_us = std::min(data.Quantile(0.95), max);
  summary.p99_us = std::min(data.Quantile(0.99), max);
  return summary;
}

/// --- Plan generation ---

/// Draws one update op: INSERT_{p,X} with a generated content tree, or
/// DELETE_p on a non-root-output pattern, weighted by the phase mix (equal
/// odds when the mix is edit-only).
UpdateOp DrawUpdate(const PhaseMix& mix, const RandomPatternGenerator& patterns,
                    const RandomTreeGenerator& trees, Rng* rng) {
  const double insert_weight = mix.insert + mix.delete_ > 0 ? mix.insert : 0.5;
  const double delete_weight =
      mix.insert + mix.delete_ > 0 ? mix.delete_ : 0.5;
  if (rng->NextWeighted({insert_weight, delete_weight}) == 0) {
    return UpdateOp::MakeInsert(
        patterns.GenerateBranching(rng),
        std::make_shared<const Tree>(trees.Generate(rng)));
  }
  Result<UpdateOp> del =
      UpdateOp::MakeDelete(patterns.GenerateBranchingNonRootOutput(rng));
  XMLUP_CHECK(del.ok());  // non-root output by construction
  return *std::move(del);
}

/// Scripts one edit against a session whose matrix currently has
/// `reads_n` x `updates_n` cells, keeping the planned dimensions in sync.
EditOp DrawEdit(const PhaseMix& mix, const RandomPatternGenerator& patterns,
                const RandomTreeGenerator& trees, Rng* rng, size_t* reads_n,
                size_t* updates_n) {
  // Kind weights: replaces dominate (they model statement editing, the
  // interesting incremental path), adds and removes keep dimensions
  // drifting. Removes are disabled below 2 rows/columns so the matrix
  // never empties; replaces need at least one.
  enum : size_t {
    kAddRead,
    kAddUpdate,
    kReplaceRead,
    kReplaceUpdate,
    kRemoveRead,
    kRemoveUpdate
  };
  std::vector<double> weights = {1, 1, 2, 2, 1, 1};
  if (*reads_n == 0) weights[kReplaceRead] = 0;
  if (*updates_n == 0) weights[kReplaceUpdate] = 0;
  if (*reads_n < 2) weights[kRemoveRead] = 0;
  if (*updates_n < 2) weights[kRemoveUpdate] = 0;
  EditOp edit;
  switch (rng->NextWeighted(weights)) {
    case kAddRead:
      edit.kind = EditOp::Kind::kAddRead;
      edit.pattern = patterns.GenerateBranching(rng);
      ++*reads_n;
      break;
    case kAddUpdate:
      edit.kind = EditOp::Kind::kAddUpdate;
      edit.update = DrawUpdate(mix, patterns, trees, rng);
      ++*updates_n;
      break;
    case kReplaceRead:
      edit.kind = EditOp::Kind::kReplaceRead;
      edit.index = rng->NextBounded(*reads_n);
      edit.pattern = patterns.GenerateBranching(rng);
      break;
    case kReplaceUpdate:
      edit.kind = EditOp::Kind::kReplaceUpdate;
      edit.index = rng->NextBounded(*updates_n);
      edit.update = DrawUpdate(mix, patterns, trees, rng);
      break;
    case kRemoveRead:
      edit.kind = EditOp::Kind::kRemoveRead;
      edit.index = rng->NextBounded(*reads_n);
      --*reads_n;
      break;
    case kRemoveUpdate:
      edit.kind = EditOp::Kind::kRemoveUpdate;
      edit.index = rng->NextBounded(*updates_n);
      --*updates_n;
      break;
  }
  return edit;
}

}  // namespace

Result<EngineOptions> EngineOptionsForSpec(
    const WorkloadSpec& spec, const std::shared_ptr<SymbolTable>& symbols,
    EngineOptions base) {
  if (!spec.dtd.enabled()) return base;
  // The declaration syntax is line-oriented, so the JSON array of
  // declaration strings is just the schema file split into lines.
  std::string text;
  for (const std::string& line : spec.dtd.declarations) {
    text += line;
    text += '\n';
  }
  Result<Dtd> dtd = Dtd::Parse(text, symbols);
  if (!dtd.ok()) {
    return Status::InvalidArgument("workload spec \"dtd\" block: " +
                                   std::string(dtd.status().message()));
  }
  // The schema drives Stage 0 and nothing else in the driver, so with
  // pruning off it is parsed (and validated) but not installed.
  if (spec.dtd.pruning) {
    base.dtd = std::make_shared<const Dtd>(*std::move(dtd));
  }
  return base;
}

VerdictTally& VerdictTally::operator+=(const VerdictTally& other) {
  no_conflict += other.no_conflict;
  conflict += other.conflict;
  unknown += other.unknown;
  errors += other.errors;
  return *this;
}

MergeTally& MergeTally::operator+=(const MergeTally& other) {
  merges += other.merges;
  ops_total += other.ops_total;
  accepted += other.accepted;
  serialized += other.serialized;
  rejected += other.rejected;
  errors += other.errors;
  return *this;
}

JsonValue MergeTally::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("merges", merges);
  json.Set("ops_total", ops_total);
  json.Set("accepted", accepted);
  json.Set("serialized", serialized);
  json.Set("rejected", rejected);
  json.Set("errors", errors);
  return json;
}

JsonValue VerdictTally::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("no_conflict", no_conflict);
  json.Set("conflict", conflict);
  json.Set("unknown", unknown);
  json.Set("errors", errors);
  return json;
}

JsonValue LatencySummary::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("count", count);
  json.Set("p50_us", p50_us);
  json.Set("p95_us", p95_us);
  json.Set("p99_us", p99_us);
  json.Set("mean_us", mean_us);
  json.Set("max_us", max_us);
  return json;
}

JsonValue PhaseReport::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("name", name);
  json.Set("mode", PhaseModeName(mode));
  json.Set("workers", workers);
  json.Set("ops_planned", ops_planned);
  json.Set("ops_completed", ops_completed);
  json.Set("truncated", truncated);
  json.Set("wall_seconds", wall_seconds);
  json.Set("throughput_ops_per_s", throughput_ops_per_s);
  json.Set("latency", latency.ToJson());
  json.Set("verdicts", verdicts.ToJson());
  if (merge.merges > 0 || merge.errors > 0) {
    json.Set("merge", merge.ToJson());
  }
  JsonValue counters = JsonValue::MakeObject();
  for (const auto& [counter_name, value] : metrics_delta.counters) {
    if (value > 0) counters.Set(counter_name, value);
  }
  json.Set("engine_counters", std::move(counters));
  return json;
}

JsonValue DriverReport::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("workload", workload);
  json.Set("seed", seed);
  JsonValue phase_array = JsonValue::MakeArray();
  for (const PhaseReport& phase : phases) phase_array.Append(phase.ToJson());
  json.Set("phases", std::move(phase_array));
  json.Set("total_verdicts", total_verdicts.ToJson());
  return json;
}

Driver::Driver(Engine* engine, WorkloadSpec spec)
    : engine_(engine), spec_(std::move(spec)) {
  XMLUP_CHECK(engine_ != nullptr);
}

Result<WorkloadPlan> Driver::BuildPlan(const WorkloadSpec& spec,
                                       Engine* engine) {
  XMLUP_CHECK(engine != nullptr);
  Rng rng(spec.seed);
  const RandomPatternGenerator patterns(
      engine->symbols(), spec.generator.BindPattern(engine->symbols()));
  const RandomTreeGenerator trees(engine->symbols(),
                                  spec.generator.BindTree(engine->symbols()));

  WorkloadPlan plan;
  plan.phases.reserve(spec.phases.size());
  for (const PhaseSpec& phase : spec.phases) {
    PhasePlan phase_plan;
    if (phase.kind == PhaseKind::kMerge) {
      // Each op slot is one whole merge unit: a private seed tree plus
      // per-session update streams. Ops are bound here so the executors
      // certify on interned refs (and the store is production-warm).
      for (size_t i = 0; i < phase.ops; ++i) {
        MergeUnit unit{trees.Generate(&rng), {}};
        unit.streams.resize(phase.merge.sessions);
        for (auto& stream : unit.streams) {
          stream.reserve(phase.merge.ops_per_session);
          for (size_t k = 0; k < phase.merge.ops_per_session; ++k) {
            stream.push_back(
                engine->Bind(DrawUpdate(phase.mix, patterns, trees, &rng)));
          }
        }
        phase_plan.merges.push_back(std::move(unit));
        phase_plan.merge_op_indices.push_back(i);
      }
      plan.phases.push_back(std::move(phase_plan));
      continue;
    }
    const bool has_edits = phase.mix.edit > 0 && spec.sessions.count > 0;
    const size_t session_count = has_edits ? spec.sessions.count : 0;
    phase_plan.sessions.resize(session_count);
    std::vector<size_t> session_reads(session_count, 0);
    std::vector<size_t> session_updates(session_count, 0);
    // Session baselines first (untimed Assign before the phase clock).
    for (size_t s = 0; s < session_count; ++s) {
      SessionScript& script = phase_plan.sessions[s];
      for (size_t i = 0; i < spec.sessions.initial_reads; ++i) {
        script.initial_reads.push_back(patterns.GenerateBranching(&rng));
      }
      for (size_t i = 0; i < spec.sessions.initial_updates; ++i) {
        script.initial_updates.push_back(
            DrawUpdate(phase.mix, patterns, trees, &rng));
      }
      session_reads[s] = spec.sessions.initial_reads;
      session_updates[s] = spec.sessions.initial_updates;
    }
    // Then the op sequence. Op index i is also the arrival-schedule slot.
    size_t next_session = 0;
    const std::vector<double> kind_weights = {
        phase.mix.insert, phase.mix.delete_, has_edits ? phase.mix.edit : 0.0};
    if (kind_weights[0] + kind_weights[1] + kind_weights[2] <= 0) {
      return Status::InvalidArgument(
          "phase \"" + phase.name +
          "\": no executable operation kind (edit-only mix with zero "
          "sessions?)");
    }
    for (size_t i = 0; i < phase.ops; ++i) {
      const size_t kind = rng.NextWeighted(kind_weights);
      if (kind == 2) {
        const size_t s = next_session;
        next_session = (next_session + 1) % session_count;
        SessionScript& script = phase_plan.sessions[s];
        script.edits.push_back(DrawEdit(phase.mix, patterns, trees, &rng,
                                        &session_reads[s],
                                        &session_updates[s]));
        script.op_indices.push_back(i);
        continue;
      }
      const PatternRef read = engine->Intern(patterns.GenerateBranching(&rng));
      std::optional<UpdateOp> update;
      if (kind == 0) {
        update = UpdateOp::MakeInsert(
            patterns.GenerateBranching(&rng),
            std::make_shared<const Tree>(trees.Generate(&rng)));
      } else {
        Result<UpdateOp> del = UpdateOp::MakeDelete(
            patterns.GenerateBranchingNonRootOutput(&rng));
        XMLUP_CHECK(del.ok());
        update = *std::move(del);
      }
      phase_plan.detects.push_back(
          DetectUnit{read, engine->Bind(*std::move(update))});
      phase_plan.detect_op_indices.push_back(i);
    }
    plan.phases.push_back(std::move(phase_plan));
  }
  return plan;
}

Result<DriverReport> Driver::Run() {
  Result<WorkloadPlan> plan = BuildPlan(spec_, engine_);
  if (!plan.ok()) return plan.status();

  DriverReport report;
  report.workload = spec_.name;
  report.seed = spec_.seed;
  for (size_t p = 0; p < spec_.phases.size(); ++p) {
    const PhaseSpec& phase = spec_.phases[p];
    const PhasePlan& phase_plan = plan->phases[p];

    // Untimed setup: fresh sessions with their baseline matrices.
    std::vector<std::unique_ptr<Engine::Session>> sessions;
    sessions.reserve(phase_plan.sessions.size());
    for (const SessionScript& script : phase_plan.sessions) {
      sessions.push_back(engine_->MakeSession());
      sessions.back()->matrix().Assign(script.initial_reads,
                                       script.initial_updates);
    }

    const obs::MetricsSnapshot before = engine_->MetricsSnapshot();
    PhaseRun run(phase_plan, phase, sessions);
    run.start = Clock::now();
    run.deadline =
        phase.max_duration_s > 0
            ? run.start + std::chrono::microseconds(static_cast<int64_t>(
                              phase.max_duration_s * 1e6))
            : Clock::time_point::max();

    const size_t num_units = phase_plan.detects.size() +
                             phase_plan.sessions.size() +
                             phase_plan.merges.size();
    std::vector<WorkerTally> tallies(phase.workers);
    {
      std::vector<std::thread> workers;
      workers.reserve(phase.workers);
      for (size_t w = 0; w < phase.workers; ++w) {
        workers.emplace_back([this, &run, &tallies, num_units, w] {
          WorkerTally& tally = tallies[w];
          for (;;) {
            // ordering: relaxed — pure index claiming: each worker only
            // needs a distinct unit, and all results are published through
            // per-worker tallies read after join().
            const size_t unit =
                run.next_unit.fetch_add(1, std::memory_order_relaxed);
            if (unit >= num_units) break;
            const size_t sessions_end =
                run.plan.detects.size() + run.plan.sessions.size();
            if (unit < run.plan.detects.size()) {
              RunDetectUnit(*engine_, run, unit, tally);
            } else if (unit < sessions_end) {
              RunSessionStream(run, unit - run.plan.detects.size(), tally);
            } else {
              RunMergeUnit(engine_, run, unit - sessions_end, tally);
            }
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    const Clock::time_point end = Clock::now();

    PhaseReport phase_report;
    phase_report.name = phase.name;
    phase_report.mode = phase.mode;
    phase_report.workers = phase.workers;
    phase_report.ops_planned = phase.ops;
    // ordering: relaxed — the worker joins above are the synchronization.
    phase_report.truncated = run.truncated.load(std::memory_order_relaxed);
    for (const WorkerTally& tally : tallies) {
      phase_report.ops_completed += tally.ops;
      phase_report.verdicts += tally.verdicts;
      phase_report.merge += tally.merge;
    }
    phase_report.wall_seconds =
        static_cast<double>(ElapsedMicros(run.start, end)) / 1e6;
    if (phase_report.wall_seconds > 0) {
      phase_report.throughput_ops_per_s =
          static_cast<double>(phase_report.ops_completed) /
          phase_report.wall_seconds;
    }
    phase_report.latency = SummarizeLatency(tallies);
    phase_report.metrics_delta = engine_->MetricsSnapshot().DiffSince(before);
    report.total_verdicts += phase_report.verdicts;
    report.phases.push_back(std::move(phase_report));
  }
  return report;
}

}  // namespace driver
}  // namespace xmlup
