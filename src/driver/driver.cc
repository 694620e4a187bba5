#include "driver/driver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/mutex.h"
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
/// they never mix phases.
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

/// Keeps each session single-writer and in plan order without making a
/// worker wait. Each session has one due edit, the next to start, and it
/// advances only when that edit finishes. An edit claimed before it is due
/// (its predecessor is running or has not started) is parked, and the
/// worker that finishes its predecessor — or skips it, once the phase is
/// out of time — runs it next. So a worker that claims an edit either runs
/// it at once or moves on to its next slot, and no edit is left behind.
class SessionHandOff {
 public:
  explicit SessionHandOff(const PhasePlan& plan)
      : next_(plan.ops.size(), kNone),
        due_(plan.sessions.size(), kNone),
        parked_(plan.ops.size(), false) {
    std::vector<size_t> last(plan.sessions.size(), kNone);
    for (size_t slot = 0; slot < plan.ops.size(); ++slot) {
      const SessionEdit* edit = std::get_if<SessionEdit>(&plan.ops[slot]);
      if (edit == nullptr) continue;
      size_t& previous = last[edit->session];
      if (previous == kNone) {
        due_[edit->session] = slot;
      } else {
        next_[previous] = slot;
      }
      previous = slot;
    }
  }

  /// Called by the worker that claimed the edit at `slot`: true when it
  /// runs the edit now, false when the edit is parked.
  bool Claim(size_t session, size_t slot) XMLUP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (due_[session] == slot) return true;
    parked_[slot] = true;
    return false;
  }

  /// Called once the edit at `slot` has run or been skipped. Returns the
  /// session's next edit when it is already parked — the caller runs it —
  /// and nullopt otherwise (its claimer will run it).
  std::optional<size_t> Finish(size_t session, size_t slot)
      XMLUP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const size_t due = due_[session] = next_[slot];
    if (due == kNone || !parked_[due]) return std::nullopt;
    parked_[due] = false;
    return due;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// next_[slot]: the slot of the next edit of the same session (kNone
  /// after its last edit). Written only by the constructor.
  std::vector<size_t> next_;
  Mutex mu_;
  /// The slot of each session's next edit to start.
  std::vector<size_t> due_ XMLUP_GUARDED_BY(mu_);
  /// Edits claimed before their turn, waiting for their predecessor's
  /// worker.
  std::vector<bool> parked_ XMLUP_GUARDED_BY(mu_);
};

/// Shared per-phase execution state; workers claim plan slots, in arrival
/// order, through `next_slot`.
struct PhaseRun {
  const PhasePlan& plan;
  const PhaseSpec& spec;
  std::vector<std::unique_ptr<Engine::Session>>& sessions;
  SessionHandOff hand_off;
  Clock::time_point start;
  /// Absolute deadline; Clock::time_point::max() when uncapped.
  Clock::time_point deadline;
  std::atomic<size_t> next_slot{0};
  std::atomic<bool> truncated{false};

  PhaseRun(const PhasePlan& plan_in, const PhaseSpec& spec_in,
           std::vector<std::unique_ptr<Engine::Session>>& sessions_in)
      : plan(plan_in), spec(spec_in), sessions(sessions_in),
        hand_off(plan_in) {}

  /// The scheduled arrival of the op at `slot`: phase start for
  /// closed-loop phases (no pacing), start + slot/rate for open-loop ones.
  Clock::time_point Arrival(size_t slot) const {
    if (spec.mode != PhaseMode::kOpen) return start;
    const double offset_us = 1e6 * static_cast<double>(slot) /
                             spec.arrival_rate;
    return start + std::chrono::microseconds(
                       static_cast<int64_t>(offset_us));
  }

  /// Waits for the op's scheduled arrival (open loop), then checks the
  /// deadline. Returns the op's latency anchor — the scheduled arrival in
  /// open phases, issue time in closed ones — or nullopt when the phase is
  /// out of time (the caller stops issuing and the phase reports
  /// truncated). An arrival past the deadline is skipped without waiting
  /// for it, so a capped open phase ends at its cap.
  ///
  /// Overload audit: arrivals stay anchored to the fixed schedule
  /// (start + i/rate) no matter how far behind a worker falls — Arrival()
  /// never reads a completion time, so a slow op cannot drift later
  /// arrivals, and the sleep is guarded (skipped entirely for past
  /// arrivals) so there is no negative-wait accumulation. Latency measured
  /// from the returned anchor therefore charges queueing delay under
  /// overload to the ops that suffered it — the coordinated-omission-safe
  /// measurement. driver_test's OpenLoopOverloadStaysAnchored pins this.
  std::optional<Clock::time_point> PaceAndCheck(size_t slot) {
    const Clock::time_point arrival = Arrival(slot);
    Clock::time_point now = Clock::now();
    if (now < arrival && arrival <= deadline) {
      std::this_thread::sleep_until(arrival);
      now = Clock::now();
    }
    if (arrival > deadline || now > deadline) {
      // ordering: relaxed — a monotone sticky flag, only read after the
      // worker joins (the join supplies the happens-before edge).
      truncated.store(true, std::memory_order_relaxed);
      return std::nullopt;
    }
    return spec.mode == PhaseMode::kOpen ? arrival : now;
  }
};

/// One worker's side of a phase: runs each claimed slot through the Run
/// overload of its op's kind (std::visit picks it).
class Worker {
 public:
  Worker(Engine* engine, PhaseRun& run, WorkerTally& tally)
      : engine_(engine), run_(run), tally_(tally) {
    if (run.spec.kind == PhaseKind::kMerge) {
      MergeOptions options;
      options.num_threads = run.spec.merge.threads;
      merger_.emplace(engine, options);
    }
  }

  void Run(size_t slot, const DetectUnit& detect) {
    // Latency is measured from the anchor PaceAndCheck returns: the
    // scheduled arrival in open phases (so queueing behind a saturated
    // engine is charged, not omitted), issue time in closed ones.
    const std::optional<Clock::time_point> anchor = run_.PaceAndCheck(slot);
    if (!anchor.has_value()) return;
    tally_.RecordVerdict(engine_->Detect(detect.read, detect.update));
    Record(*anchor);
  }

  /// Runs the edit if it is due, then each of its session's edits that was
  /// parked meanwhile; otherwise parks it and returns at once.
  void Run(size_t slot, const SessionEdit& edit) {
    if (!run_.hand_off.Claim(edit.session, slot)) return;
    for (std::optional<size_t> next = slot; next.has_value();
         next = run_.hand_off.Finish(edit.session, *next)) {
      Apply(*next, edit.session);
    }
  }

  void Run(size_t slot, const MergeUnit& unit) {
    const std::optional<Clock::time_point> anchor = run_.PaceAndCheck(slot);
    if (!anchor.has_value()) return;
    // The plan stays immutable (re-runnable): each execution merges into a
    // private copy of the unit's seed tree.
    Tree working = CopyTree(unit.seed);
    const Result<MergeReport> report = merger_->Merge(&working, unit.streams);
    if (!report.ok()) {
      ++tally_.merge.errors;
    } else {
      ++tally_.merge.merges;
      tally_.merge.ops_total += report->ops_total;
      tally_.merge.accepted += report->accepted;
      tally_.merge.serialized += report->serialized;
      tally_.merge.rejected += report->rejected;
    }
    Record(*anchor);
  }

 private:
  /// Runs the session edit at `slot` against its session's matrix.
  void Apply(size_t slot, size_t session) {
    const std::optional<Clock::time_point> anchor = run_.PaceAndCheck(slot);
    if (!anchor.has_value()) return;
    const EditOp& edit = std::get<SessionEdit>(run_.plan.ops[slot]).edit;
    MaintainedConflictMatrix& matrix = run_.sessions[session]->matrix();
    switch (edit.kind) {
      case EditOp::Kind::kAddRead:
        tally_.RecordSlice(matrix.row(matrix.AddRead(*edit.pattern)));
        break;
      case EditOp::Kind::kAddUpdate:
        tally_.RecordSlice(matrix.column(matrix.AddUpdate(*edit.update)));
        break;
      case EditOp::Kind::kReplaceRead:
        matrix.ReplaceRead(edit.index, *edit.pattern);
        tally_.RecordSlice(matrix.row(edit.index));
        break;
      case EditOp::Kind::kReplaceUpdate:
        matrix.ReplaceUpdate(edit.index, *edit.update);
        tally_.RecordSlice(matrix.column(edit.index));
        break;
      case EditOp::Kind::kRemoveRead:
        matrix.RemoveRead(edit.index);
        break;
      case EditOp::Kind::kRemoveUpdate:
        matrix.RemoveUpdate(edit.index);
        break;
    }
    Record(*anchor);
  }

  void Record(Clock::time_point anchor) {
    tally_.RecordLatency(ElapsedMicros(anchor, Clock::now()));
    ++tally_.ops;
  }

  Engine* engine_;
  PhaseRun& run_;
  WorkerTally& tally_;
  /// One executor for all the merges this worker runs in a merge phase.
  std::optional<MergeExecutor> merger_;
};

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
  base.dtd = std::make_shared<const Dtd>(*std::move(dtd));
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
    phase_plan.ops.reserve(phase.ops);
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
        phase_plan.ops.emplace_back(std::move(unit));
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
    // Then the ops, in arrival order.
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
        phase_plan.ops.emplace_back(
            SessionEdit{s, DrawEdit(phase.mix, patterns, trees, &rng,
                                    &session_reads[s], &session_updates[s])});
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
      phase_plan.ops.emplace_back(
          DetectUnit{read, engine->Bind(*std::move(update))});
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

    std::vector<WorkerTally> tallies(phase.workers);
    {
      std::vector<std::thread> workers;
      workers.reserve(phase.workers);
      for (size_t w = 0; w < phase.workers; ++w) {
        workers.emplace_back([this, &run, &tallies, w] {
          Worker worker(engine_, run, tallies[w]);
          for (;;) {
            // ordering: relaxed — pure index claiming: each worker only
            // needs a distinct slot, and all results are published through
            // per-worker tallies read after join().
            const size_t slot =
                run.next_slot.fetch_add(1, std::memory_order_relaxed);
            if (slot >= run.plan.ops.size()) break;
            std::visit([&](const auto& op) { worker.Run(slot, op); },
                       run.plan.ops[slot]);
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
