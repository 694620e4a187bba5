#ifndef XMLUP_CONFLICT_BATCH_DETECTOR_H_
#define XMLUP_CONFLICT_BATCH_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "conflict/detector.h"
#include "conflict/update_op.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"

namespace xmlup {

/// Batch conflict-matrix engine (§6 motivation: compiler data-dependence
/// analysis needs a verdict for *every* read/update pair of a program, not
/// one pair at a time). Given N reads and M updates it computes the full
/// N×M ConflictReport matrix — or any sparse subset of it — on a
/// fixed-size thread pool, solving each distinct pair of a call once.
///
/// Determinism guarantee: results are keyed by pair index, and every
/// distinct canonical pair is solved by exactly one detector invocation
/// whose verdict does not depend on scheduling. The verdict, method and
/// trees_checked fields of the returned matrix are therefore identical
/// across runs and thread counts, and so are the witnesses: every witness
/// builder, the bounded search included, takes its filler symbols from the
/// table's reserved pool instead of minting fresh labels.
///
/// Per-call dedup: each input pattern is interned into a PatternStore
/// (which minimizes and canonicalizes once per distinct pattern over the
/// store's lifetime, see pattern/pattern_store.h), and each call makes one
/// detector job per distinct all-integer BatchPairKey (read ref, update
/// kind, update ref, content id). Two pairs share a key iff their
/// canonicalized problems coincide, so the repeated patterns emitted by
/// workload/program_generator share one solve and one report object. The
/// engine keeps no results between calls: only the store (interned
/// patterns and their compiled forms are immutable facts) and the
/// cumulative BatchStats outlive a call.
struct BatchDetectorOptions {
  /// Per-pair detector configuration, applied by the Detect facade to
  /// every job — its Stage 0 schema-type filter included when
  /// `detector.dtd` is set.
  DetectorOptions detector;
  /// Worker threads; 0 means ThreadPool::DefaultThreadCount(). 1 runs
  /// inline on the calling thread (no spawning).
  size_t num_threads = 0;
  /// Pattern interner shared with the caller (and possibly other engines
  /// over the same SymbolTable). Null: the engine creates a private,
  /// minimizing store. A caller that wants patterns solved exactly as
  /// given injects a PatternStore built with `minimize = false`.
  std::shared_ptr<PatternStore> store;
};

struct BatchStats {
  /// Pair verdicts requested across all Detect* calls.
  uint64_t pairs_total = 0;
  /// Pairs answered by an identical pair of the same call (same
  /// BatchPairKey): they share that pair's solve and report object.
  uint64_t cache_hits = 0;
  /// Pairs that became a detector job — each solved exactly once.
  /// Invariant (checked by the engine): hits + misses == pairs_total.
  uint64_t cache_misses = 0;
};

/// Reports are shared: identical pairs of one call point at the same
/// object (ConflictReport owns a Tree witness and is move-only). Entries
/// are never null.
using SharedConflictResult = std::shared_ptr<const Result<ConflictReport>>;

/// One (read index, update index) cell of the matrix.
struct ReadUpdatePair {
  size_t read_index;
  size_t update_index;
};

/// The engine's per-call dedup key: all integers, so hashing is a few
/// multiplies and equality one comparison — no string building on the
/// per-pair path. Needs no detector-options leg because a call runs under
/// one engine's options.
struct BatchPairKey {
  uint32_t read_id = 0;
  uint32_t update_id = 0;
  /// Content-code id for inserts; 0 for deletes (disambiguated by kind).
  uint32_t content_id = 0;
  uint8_t kind = 0;

  friend bool operator==(const BatchPairKey& a, const BatchPairKey& b) {
    return a.read_id == b.read_id && a.update_id == b.update_id &&
           a.content_id == b.content_id && a.kind == b.kind;
  }
};

struct BatchPairKeyHash {
  size_t operator()(const BatchPairKey& k) const {
    // Pack into one 64-bit word (ids are store-dense, far below 2^21 in
    // practice) and mix; collisions beyond the packing fall back to
    // operator== in the map.
    uint64_t packed = (static_cast<uint64_t>(k.read_id) << 32) ^
                      (static_cast<uint64_t>(k.content_id) << 9) ^
                      (static_cast<uint64_t>(k.update_id) << 1) ^ k.kind;
    packed ^= packed >> 33;
    packed *= 0xff51afd7ed558ccdULL;
    packed ^= packed >> 33;
    return static_cast<size_t>(packed);
  }
};

class BatchConflictDetector {
 public:
  explicit BatchConflictDetector(BatchDetectorOptions options = {});

  /// Full N×M matrix in row-major order: result[i * updates.size() + j]
  /// is the verdict for (reads[i], updates[j]). The Pattern overloads
  /// intern on entry; the PatternRef overloads skip straight to the
  /// integer-keyed path (refs must come from this engine's store).
  std::vector<SharedConflictResult> DetectMatrix(
      const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates);
  std::vector<SharedConflictResult> DetectMatrix(
      const std::vector<PatternRef>& reads,
      const std::vector<UpdateOp>& updates);

  /// Sparse subset of the matrix; result[k] corresponds to pairs[k].
  /// Indices must be in range.
  std::vector<SharedConflictResult> DetectPairs(
      const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates,
      const std::vector<ReadUpdatePair>& pairs);
  std::vector<SharedConflictResult> DetectPairs(
      const std::vector<PatternRef>& reads,
      const std::vector<UpdateOp>& updates,
      const std::vector<ReadUpdatePair>& pairs);

  const BatchStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BatchStats(); }

  /// The options this engine was built with (the Engine facade reads them
  /// to mint per-session engines with matching detector configuration).
  /// When a store was injected, `options().store` is that store.
  const BatchDetectorOptions& options() const { return options_; }

  /// The engine's pattern interner. Callers that build their inputs
  /// against it (Intern + ref overloads / UpdateOp::Bind) skip per-call
  /// canonicalization entirely.
  const std::shared_ptr<PatternStore>& pattern_store() const { return store_; }

 private:
  BatchDetectorOptions options_;
  std::shared_ptr<PatternStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  BatchStats stats_;
  /// Debug tripwire for the class's single-caller contract (stats_ is
  /// unsynchronized on purpose — the Engine facade serializes on batch_mu_
  /// above this layer). Every public entry point funnels into the
  /// ref-overload DetectPairs exactly once, which holds this count up
  /// while it runs; a nonzero count on entry means two callers are inside
  /// the engine at once and is DCHECK-failed rather than left to corrupt
  /// the stats silently.
  std::atomic<int> active_calls_{0};
};

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_BATCH_DETECTOR_H_
