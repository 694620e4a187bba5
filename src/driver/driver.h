#ifndef XMLUP_DRIVER_DRIVER_H_
#define XMLUP_DRIVER_DRIVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "conflict/update_op.h"
#include "driver/workload_spec.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"

namespace xmlup {
namespace driver {

/// Verdict counts accumulated over a run. Deterministic for a fixed spec +
/// seed at any worker count: the plan is generated single-threaded, every
/// operation's verdict is a pure function of its inputs (the engine's
/// determinism guarantee), and tallies are commutative sums.
struct VerdictTally {
  uint64_t no_conflict = 0;
  uint64_t conflict = 0;
  uint64_t unknown = 0;
  uint64_t errors = 0;

  uint64_t total() const { return no_conflict + conflict + unknown + errors; }
  VerdictTally& operator+=(const VerdictTally& other);
  friend bool operator==(const VerdictTally& a, const VerdictTally& b) {
    return a.no_conflict == b.no_conflict && a.conflict == b.conflict &&
           a.unknown == b.unknown && a.errors == b.errors;
  }
  JsonValue ToJson() const;
};

/// Merge-unit accounting of a kMerge phase, summed over workers (like
/// VerdictTally, deterministic for a fixed spec + seed at any worker
/// count). `accepted + serialized + rejected == ops_total` whenever
/// `errors == 0`.
struct MergeTally {
  uint64_t merges = 0;
  uint64_t ops_total = 0;
  uint64_t accepted = 0;
  uint64_t serialized = 0;
  uint64_t rejected = 0;
  /// Merge units that failed outright (no per-op accounting).
  uint64_t errors = 0;

  MergeTally& operator+=(const MergeTally& other);
  friend bool operator==(const MergeTally& a, const MergeTally& b) {
    return a.merges == b.merges && a.ops_total == b.ops_total &&
           a.accepted == b.accepted && a.serialized == b.serialized &&
           a.rejected == b.rejected && a.errors == b.errors;
  }
  JsonValue ToJson() const;
};

/// Interpolated percentiles over the driver's power-of-two latency buckets
/// plus the exact observed maximum (buckets only bound it).
struct LatencySummary {
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  uint64_t max_us = 0;
  uint64_t count = 0;

  JsonValue ToJson() const;
};

struct PhaseReport {
  std::string name;
  PhaseMode mode = PhaseMode::kClosed;
  size_t workers = 0;
  size_t ops_planned = 0;
  /// Operations executed (== planned unless the phase was truncated by
  /// max_duration_s).
  size_t ops_completed = 0;
  bool truncated = false;
  double wall_seconds = 0;
  /// ops_completed / wall_seconds: sustained throughput for closed phases,
  /// achieved (≤ offered arrival_rate) for open phases.
  double throughput_ops_per_s = 0;
  LatencySummary latency;
  VerdictTally verdicts;
  /// Merge-unit accounting; all-zero for kOps phases (its JSON object is
  /// emitted only when the phase ran merges or merge errors).
  MergeTally merge;
  /// Engine activity attributed to this phase: the process-wide metrics
  /// registry snapshotted before and after, diffed (obs::MetricsSnapshot::
  /// DiffSince).
  obs::MetricsSnapshot metrics_delta;

  JsonValue ToJson() const;
};

struct DriverReport {
  std::string workload;
  uint64_t seed = 0;
  std::vector<PhaseReport> phases;
  VerdictTally total_verdicts;

  JsonValue ToJson() const;
};

/// --- The pre-generated operation plan ---
///
/// The driver never consults an Rng while the clock runs: every operation
/// of every phase is materialized up front, single-threaded, from the
/// spec's seed. Workers then merely *claim and execute* plan slots, so op
/// sequences (and hence verdict tallies) are identical at any worker
/// count. Exposed publicly so tests can replay the exact detect pairs
/// through the batch engine as an independent oracle.

/// One singleton conflict-detection op: an interned read against a bound
/// update, executed on the engine's thread-safe Detect hot path.
struct DetectUnit {
  PatternRef read;
  UpdateOp update;
};

/// One edit against a session's maintained matrix. Indices are valid by
/// construction: the planner tracks each session's matrix dimensions as it
/// scripts the stream.
struct EditOp {
  enum class Kind {
    kAddRead,
    kAddUpdate,
    kReplaceRead,
    kReplaceUpdate,
    kRemoveRead,
    kRemoveUpdate
  };
  Kind kind = Kind::kAddRead;
  /// Row/column index for replace/remove; unused for adds.
  size_t index = 0;
  /// The new read pattern (engaged for kAddRead/kReplaceRead) ...
  std::optional<Pattern> pattern;
  /// ... or the new update (engaged for kAddUpdate/kReplaceUpdate).
  std::optional<UpdateOp> update;
};

/// One edit of the session `session`. A session is single-writer: its
/// edits run one at a time and in plan order, whichever workers claim
/// their slots.
struct SessionEdit {
  size_t session = 0;
  EditOp edit;
};

/// A session's baseline: the matrix contents Assign()ed before the phase
/// clock starts (untimed setup — the phase measures churn, not initial
/// construction).
struct SessionScript {
  std::vector<Pattern> initial_reads;
  std::vector<UpdateOp> initial_updates;
};

/// One concurrent-edit merge of a kMerge phase: a private seed tree plus
/// per-session update streams, executed through a MergeExecutor. Trees are
/// move-only, so a plan holding merge units is too.
struct MergeUnit {
  Tree seed;
  std::vector<std::vector<UpdateOp>> streams;
};

/// What arrives in one slot of a phase's schedule.
using PlannedOp = std::variant<DetectUnit, SessionEdit, MergeUnit>;

struct PhasePlan {
  /// One baseline per spec session (none when the phase draws no edits).
  std::vector<SessionScript> sessions;
  /// The phase's ops in arrival order: ops[i] is due at slot i of the
  /// arrival schedule.
  std::vector<PlannedOp> ops;
};

struct WorkloadPlan {
  std::vector<PhasePlan> phases;
};

/// Engine configuration implied by a spec's "dtd" block: parses the
/// block's declarations against `symbols` (the table the Engine will be
/// built over — labels must match the generator's a0..aN-1 names) and
/// sets `base.dtd` to the parsed schema (kept alive by the returned
/// options / the Engine that consumes them). A spec without a "dtd" block
/// returns `base` unchanged, so callers can pass every spec through
/// unconditionally:
///
///   auto symbols = std::make_shared<SymbolTable>();
///   XMLUP_ASSIGN_OR_RETURN(EngineOptions options,
///                          EngineOptionsForSpec(spec, symbols));
///   Engine engine(symbols, std::move(options));
///
/// Fails with the offending declaration's parse error on a malformed
/// schema.
Result<EngineOptions> EngineOptionsForSpec(
    const WorkloadSpec& spec, const std::shared_ptr<SymbolTable>& symbols,
    EngineOptions base = {});

/// Drives an Engine through a WorkloadSpec and reports per-phase sustained
/// throughput, latency percentiles, and verdict tallies.
///
/// Determinism contract: for a fixed spec (hence seed), the plan, the
/// per-phase op counts, and the per-phase verdict tallies are identical
/// across runs and worker counts — only wall-clock figures vary. Phases
/// truncated by max_duration_s forfeit this (they executed a prefix).
class Driver {
 public:
  /// `engine` must outlive the driver. The engine's store accumulates the
  /// plan's interned patterns (that is the point: a warm store is the
  /// production-shaped steady state).
  Driver(Engine* engine, WorkloadSpec spec);

  /// Generates the plan for `spec` against `engine` (interning reads,
  /// binding updates). Deterministic: same spec + same engine-interning
  /// state ⇒ same plan. Fails on specs whose generator blocks are
  /// degenerate (e.g. a delete-only mix with patterns that cannot avoid
  /// selecting the root).
  static Result<WorkloadPlan> BuildPlan(const WorkloadSpec& spec,
                                        Engine* engine);

  /// Runs every phase in order. Blocking; spawns phase.workers threads per
  /// phase internally.
  Result<DriverReport> Run();

 private:
  Engine* engine_;
  WorkloadSpec spec_;
};

}  // namespace driver
}  // namespace xmlup

#endif  // XMLUP_DRIVER_DRIVER_H_
