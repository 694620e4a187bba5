#ifndef XMLUP_DRIVER_WORKLOAD_SPEC_H_
#define XMLUP_DRIVER_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "workload/generator_spec.h"

namespace xmlup {
namespace driver {

/// How a phase's workers issue operations.
enum class PhaseMode {
  /// Each worker issues its next operation as soon as the previous one
  /// completes; latency is pure service time. Scaling `workers` across
  /// phases gives a closed-loop ramp.
  kClosed,
  /// Operations arrive on a fixed schedule (operation i at i/arrival_rate
  /// seconds into the phase) regardless of completion; latency is measured
  /// from the *scheduled* arrival, so queueing delay when the engine falls
  /// behind the offered rate is charged to the operations that suffered it
  /// (no coordinated omission).
  kOpen
};

std::string_view PhaseModeName(PhaseMode mode);

/// What one operation of a phase is.
enum class PhaseKind {
  /// The default: each op is one detect/edit drawn from the phase mix.
  kOps,
  /// Each op is one whole concurrent-edit merge (merge/merge_executor.h):
  /// a generated seed tree plus per-session update streams, scheduled by
  /// commutativity certificates and executed conflict-aware.
  kMerge
};

std::string_view PhaseKindName(PhaseKind kind);

/// Shape of the merge units a kMerge phase executes. The generated update
/// streams draw from the generator block's pattern/tree settings, so
/// conflict density is steered the same way as everywhere else (alphabet
/// size, wildcard probability, ...).
struct MergePhaseSpec {
  /// Concurrent edit sessions per merge unit.
  size_t sessions = 4;
  /// Updates each session submits.
  size_t ops_per_session = 4;
  /// MergeOptions::num_threads of each worker's executor. The default (1)
  /// evaluates inline — right when phase workers already provide the
  /// parallelism; reports are identical either way. Merges run under the
  /// serializing ConflictPolicy.
  size_t threads = 1;
};

/// Relative weights of the operation kinds a phase draws from. Weights
/// need not sum to 1 (they are normalized); at least one must be positive.
struct PhaseMix {
  /// Singleton Detect of a generated read pattern against INSERT_{p,X}.
  double insert = 0.45;
  /// Singleton Detect of a generated read pattern against DELETE_p.
  double delete_ = 0.45;
  /// One edit against a maintained session matrix (add/replace/remove of
  /// a read or update), tallying the verdicts of the recomputed slice.
  double edit = 0.1;
};

struct PhaseSpec {
  std::string name;
  PhaseMode mode = PhaseMode::kClosed;
  /// JSON "kind": "ops" (default) or "merge". Merge phases must not set
  /// "mix" (they have no per-op draw) and configure the "merge" block
  /// instead; `ops` then counts merge units and the arrival schedule paces
  /// whole merges.
  PhaseKind kind = PhaseKind::kOps;
  MergePhaseSpec merge;
  /// Worker threads driving this phase. Verdict tallies and op counts are
  /// independent of this (the determinism contract); only timing changes.
  size_t workers = 1;
  /// Operations this phase issues. Phases are bounded by *count*, not
  /// duration, so the same spec + seed replays the identical operation
  /// sequence at any worker count.
  size_t ops = 100;
  /// Target offered load in ops/second; required (> 0) for kOpen phases,
  /// must be absent or 0 for kClosed phases.
  double arrival_rate = 0.0;
  /// Safety cap: a phase that exceeds this wall time stops issuing new
  /// operations and reports truncated=true (0 = no cap). A truncated
  /// phase forfeits the determinism contract — size caps so reference
  /// runs never hit them.
  double max_duration_s = 0.0;
  PhaseMix mix;
};

/// Shape of the maintained-matrix sessions the edit stream churns.
struct SessionSetup {
  /// Concurrent sessions per phase. Each session's edits execute in spec
  /// order on one worker; distinct sessions may land on distinct workers.
  size_t count = 2;
  /// Matrix dimensions established (untimed) before the phase clock runs.
  size_t initial_reads = 4;
  size_t initial_updates = 4;
};

/// Optional schema block of a workload: DTD declarations (the dtd/dtd.h
/// text syntax, one declaration per array element) parsed against the
/// run's SymbolTable. When present the declarations must parse, and the
/// driver's Engine is built with EngineOptions::dtd, so every detection
/// the run issues goes through the staged pipeline's type filter; a spec
/// without the block runs schema-free. Note the generator names labels
/// a0..aN-1; declarations must use those names.
struct DtdSpec {
  std::vector<std::string> declarations;

  bool enabled() const { return !declarations.empty(); }
};

/// The declarative description of a whole driver run: which generators
/// feed it, how many phases, and each phase's load shape. JSON shape
/// (top-level keys "name", "seed", "generator", "dtd", "sessions",
/// "phases"):
///
///   {"name": "reference",
///    "seed": 42,
///    "generator": { ... workload::GeneratorSpec ... },
///    "dtd": {"declarations": ["root a0", "allow a0 : a1 a2"]},
///    "sessions": {"count": 2, "initial_reads": 4, "initial_updates": 4},
///    "phases": [
///      {"name": "warmup", "mode": "closed", "workers": 1, "ops": 200,
///       "mix": {"insert": 0.45, "delete": 0.45, "edit": 0.1}},
///      {"name": "steady", "mode": "open", "workers": 8, "ops": 4000,
///       "arrival_rate": 2000, "max_duration_s": 30}]}
///
/// Unknown keys anywhere are errors, "phases" must be non-empty, and
/// FromJson(ToJson(spec)) == spec for every valid spec. The "dtd" block is
/// optional (omitted from ToJson when empty); its "declarations" must be a
/// non-empty array of strings. Declarations are *not* parsed here — the
/// spec layer has no SymbolTable; EngineOptionsForSpec (driver.h) parses
/// and reports errors with source context.
struct WorkloadSpec {
  std::string name = "workload";
  uint64_t seed = 1;
  workload::GeneratorSpec generator;
  DtdSpec dtd;
  SessionSetup sessions;
  std::vector<PhaseSpec> phases;

  static Result<WorkloadSpec> FromJson(const JsonValue& json);
  /// Parse + FromJson in one step (what the CLI does with a spec file).
  static Result<WorkloadSpec> Parse(std::string_view json_text);
  JsonValue ToJson() const;

  friend bool operator==(const WorkloadSpec& a, const WorkloadSpec& b);
  friend bool operator!=(const WorkloadSpec& a, const WorkloadSpec& b) {
    return !(a == b);
  }
};

}  // namespace driver
}  // namespace xmlup

#endif  // XMLUP_DRIVER_WORKLOAD_SPEC_H_
