#ifndef XMLUP_MERGE_MERGE_EXECUTOR_H_
#define XMLUP_MERGE_MERGE_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "conflict/update_op.h"
#include "engine/engine.h"
#include "xml/tree.h"

namespace xmlup {

/// What the executor does with updates caught in an uncertified pair.
enum class ConflictPolicy {
  /// Keep every op; uncertified pairs execute in the deterministic serial
  /// order (session id, stream index) via the dependence DAG.
  kSerialize,
  /// First-committer-wins admission: an op with an uncertified
  /// cross-session pair against an earlier admitted op is dropped.
  kReject,
};

/// Per-op merge outcome.
///   kAccepted   — no uncertified cross-session pair; the op ran with full
///                 scheduling freedom.
///   kSerialized — at least one uncertified cross-session pair with
///                 another executed op; the DAG pinned it to the serial
///                 order (kSerialize policy only).
///   kRejected   — dropped by the kReject admission scan; not executed.
enum class MergeOutcome { kAccepted, kSerialized, kRejected };

std::string_view MergeOutcomeName(MergeOutcome outcome);

struct MergeOptions {
  /// Worker threads for the per-level evaluation phase. 0 or 1 runs
  /// inline on the calling thread. The schedule, the mutation order, the
  /// merged tree and the report are identical for every setting — threads
  /// only spread the read-only pattern evaluations.
  size_t num_threads = 1;
  ConflictPolicy policy = ConflictPolicy::kSerialize;
};

struct MergeOpReport {
  size_t session = 0;
  /// Position in the session's stream.
  size_t index = 0;
  MergeOutcome outcome = MergeOutcome::kAccepted;
  /// Wavefront level the op executed in (0 for rejected ops, which never
  /// enter the DAG).
  size_t level = 0;
  /// For serialized/rejected ops: the first conflicting partner in serial
  /// order and the certificate's diagnostic. Empty for accepted ops.
  std::string detail;
};

/// The full accounting of one merge. `ops` is ordered by (session, index)
/// — the deterministic serial order — and always satisfies
/// accepted + serialized + rejected == ops_total.
struct MergeReport {
  std::vector<MergeOpReport> ops;
  size_t ops_total = 0;
  size_t accepted = 0;
  size_t serialized = 0;
  size_t rejected = 0;
  /// Wavefront levels executed and the widest level's op count.
  size_t levels = 0;
  size_t width = 0;
  /// Commutativity-certificate accounting over all op pairs (same-session
  /// pairs included: program order is only enforced where the certificate
  /// cannot clear the pair).
  size_t pairs_checked = 0;
  size_t pairs_certified = 0;
  /// Certificate calls that failed outright; counted as conflicts
  /// (soundness: an error is never an independence claim).
  size_t cert_errors = 0;

  JsonValue ToJson() const;
};

/// Conflict-aware merge of N concurrent edit sessions onto one tree — the
/// consumer the certificate machinery existed for: instead of answering
/// "do these conflict?", it uses the answers to actually run the
/// non-conflicting updates in parallel.
///
/// Pipeline (all scheduling work is single-threaded and deterministic):
///   1. Bind every op through the engine's PatternStore (intern once,
///      certify on refs).
///   2. Certify all op pairs with Engine::CertifyCommute (§6), one call
///      per distinct ordered pair of op identities (pattern ref, kind,
///      content canonical code): a certificate reads only its two bound
///      ops, so a pair of ops identical to an earlier pair's takes that
///      pair's answer (counter merge.certificates counts the calls). Every
///      pair the certificate cannot clear — kUnknown or an error — becomes
///      a dependence edge oriented by the serial order (session, index).
///   3. Under kReject, a greedy scan in serial order drops ops with an
///      uncertified cross-session pair against an earlier admitted op.
///   4. Wavefront levels of the DAG (ComputeWavefronts, the dependence
///      core's level pass that lint's partitioner also uses): ops sharing
///      a level are pairwise certified-commuting.
///   5. Each level executes split-phase: pattern evaluations run in
///      parallel on the pool against the pre-level tree (read-only), then
///      mutations apply serially in serial order. Certified commutation
///      means the pre-level evaluation equals the evaluation at each op's
///      serial position (applying a certified partner never changes the
///      other's selected set), so the result is value-equal to the serial
///      reference — and bit-identical across thread counts, because the
///      execution path does not depend on them.
///
/// Reports merge.* counters into obs::MetricsRegistry::Default() and a
/// "Merge" span with per-level "Merge.level" children when tracing is on.
class MergeExecutor {
 public:
  /// `engine` must outlive the executor.
  explicit MergeExecutor(Engine* engine, MergeOptions options = {});

  /// Merges the session streams into `tree` (mutated in place) and
  /// returns the per-op accounting. The tree, every op's pattern and all
  /// inserted content must share the engine's SymbolTable; otherwise the
  /// merge returns InvalidArgument and leaves the tree untouched. Single
  /// caller at a time per executor
  /// (the evaluation pool is not re-entrant); distinct executors may merge
  /// concurrently over one shared engine.
  Result<MergeReport> Merge(
      Tree* tree, const std::vector<std::vector<UpdateOp>>& sessions) const;

 private:
  Engine* engine_;
  MergeOptions options_;
  /// Null in inline mode (num_threads <= 1).
  std::unique_ptr<ThreadPool> pool_;
  /// Debug tripwire for Merge()'s single-caller contract: held up for the
  /// duration of each Merge call and DCHECK-failed on overlap, so a
  /// cross-thread misuse crashes with a message instead of corrupting the
  /// tree under mutation. Mutable because Merge is const (the executor's
  /// configuration really is read-only; the tripwire is bookkeeping).
  mutable std::atomic<int> active_calls_{0};
};

/// The sequential reference the merge is checked against: applies every op
/// whose outcome in `report` is not kRejected, in (session, index) order,
/// via UpdateOp::ApplyInPlace. A correct merge yields a tree with the same
/// canonical code (xml/isomorphism.h) as this execution.
void ApplySerialReference(Tree* tree,
                          const std::vector<std::vector<UpdateOp>>& sessions,
                          const MergeReport& report);

}  // namespace xmlup

#endif  // XMLUP_MERGE_MERGE_EXECUTOR_H_
