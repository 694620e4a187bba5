#ifndef XMLUP_CONFLICT_BATCH_DETECTOR_H_
#define XMLUP_CONFLICT_BATCH_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
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
/// fixed-size thread pool, with a memoization cache keyed on interned
/// canonical pattern pairs.
///
/// Determinism guarantee: results are keyed by pair index, and every
/// distinct canonical pair is solved by exactly one detector invocation
/// whose verdict does not depend on scheduling. The verdict, method and
/// trees_checked fields of the returned matrix are therefore identical
/// across runs and thread counts. So are the witnesses of the bounded
/// search, whose symbols α come from the table's reserved pool; the other
/// witness builders mint fresh labels, whose names depend on interning
/// order.
///
/// Memoization: each input pattern is interned once into a PatternStore
/// (which minimizes and canonicalizes exactly once per distinct pattern,
/// see pattern/pattern_store.h); the cache key is the all-integer
/// BatchPairKey (read ref, update kind, update ref, content id). Two pairs
/// share a key iff their canonicalized problems coincide, so the repeated
/// patterns emitted by workload/program_generator hit the cache instead of
/// re-running the PTIME algorithms or the bounded search. Both the store
/// and the cache persist across Detect* calls (ClearCache() drops only the
/// result cache; interned patterns are kept — they are immutable facts).
struct BatchDetectorOptions {
  /// Per-pair detector configuration. When `detector.dtd` is set (and
  /// `detector.enable_type_pruning` left on), the engine runs the Stage 0
  /// schema-type filter itself, *before* the memo cache: pruned pairs are
  /// answered from one shared kTypePruned report and never consume a cache
  /// entry or a detector call — see BatchStats::type_pruned.
  DetectorOptions detector;
  /// Worker threads; 0 means ThreadPool::DefaultThreadCount(). 1 runs
  /// inline on the calling thread (no spawning).
  size_t num_threads = 0;
  /// Memoize results keyed on canonical pattern pairs.
  bool enable_cache = true;
  /// Canonicalize patterns through MinimizePattern at intern time. Sound
  /// (minimization is equivalence-preserving) and makes equivalent
  /// patterns share refs (hence cache entries); costs one minimization per
  /// distinct input pattern over the engine's lifetime. Ignored when
  /// `store` is injected (the store's own setting governs).
  bool minimize_patterns = true;
  /// Pattern interner shared with the caller (and possibly other engines
  /// over the same SymbolTable). Null: the engine creates a private store.
  std::shared_ptr<PatternStore> store;
  /// Upper bound on memoized results kept across Detect* calls; 0 means
  /// unbounded. When a call leaves the cache over this bound, the
  /// least-recently-used entries are evicted (LRU on generations: every
  /// Detect* call stamps the entries it touched with the call's
  /// generation; the oldest stamps go first, ties broken by key id order,
  /// so eviction is deterministic). Eviction never changes verdicts —
  /// every solve is independent of cache state — it only turns future
  /// hits into recomputed misses, counted in BatchStats::cache_evictions.
  size_t max_cache_entries = 0;
};

struct BatchStats {
  /// Pair verdicts requested across all Detect* calls.
  uint64_t pairs_total = 0;
  /// Pairs answered from the memoization cache (including pairs that
  /// duplicate another pair of the same call).
  uint64_t cache_hits = 0;
  /// Pairs not served by the cache — each one became a detector job.
  /// Invariant (checked by the engine):
  ///   hits + misses + type_pruned == pairs_total.
  uint64_t cache_misses = 0;
  /// Pairs answered by the Stage 0 schema-type filter (detector.dtd set).
  /// Pruned pairs cost no cache entries and no detector calls — all of
  /// them in one call share a single kTypePruned report object.
  uint64_t type_pruned = 0;
  /// Detector invocations (distinct canonical pairs actually solved).
  /// Equal to cache_misses: every miss is solved exactly once.
  uint64_t unique_pairs_solved = 0;
  /// Entries dropped by the max_cache_entries LRU policy. Evictions do not
  /// disturb the hits + misses == pairs_total invariant: they only make a
  /// later identical pair miss (and re-solve) instead of hit.
  uint64_t cache_evictions = 0;
};

/// Reports are shared: identical pairs point at the same object
/// (ConflictReport owns a Tree witness and is move-only, and sharing is
/// exactly what the cache does anyway). Entries are never null.
using SharedConflictResult = std::shared_ptr<const Result<ConflictReport>>;

/// One (read index, update index) cell of the matrix.
struct ReadUpdatePair {
  size_t read_index;
  size_t update_index;
};

/// The engine's memo key: all integers, so hashing is a few multiplies and
/// equality one comparison — no string building on the per-pair path. Safe
/// without a detector-options leg because the cache is per-engine and an
/// engine's options are immutable after construction.
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
  friend bool operator!=(const BatchPairKey& a, const BatchPairKey& b) {
    return !(a == b);
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

  /// Drops all memoized results (stats and interned patterns are kept).
  void ClearCache();

  /// Memoized results currently retained (≤ max_cache_entries when the
  /// bound is set).
  size_t cache_size() const { return cache_.size(); }

  /// The engine's pattern interner. Callers that build their inputs
  /// against it (Intern + ref overloads / UpdateOp::Bind) skip per-call
  /// canonicalization entirely.
  const std::shared_ptr<PatternStore>& pattern_store() const { return store_; }

  /// Cache key for a (read, update) pair under this engine's store.
  /// Interns both patterns (and the content code). Exposed for tests.
  BatchPairKey CacheKey(const Pattern& read, const UpdateOp& update);

 private:
  struct CacheEntry {
    SharedConflictResult result;
    /// Generation (Detect* call counter) that created or last hit this
    /// entry — the LRU recency stamp.
    uint64_t generation = 0;
  };

  /// The update ref within store_, reusing the op's own ref when it was
  /// bound to the same store.
  PatternRef UpdateRef(const UpdateOp& update);

  /// Applies the max_cache_entries LRU policy after a call published its
  /// results.
  void EvictIfOverBound();

  BatchDetectorOptions options_;
  std::shared_ptr<PatternStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  std::unordered_map<BatchPairKey, CacheEntry, BatchPairKeyHash> cache_;
  /// Bumped at the start of every (ref-overload) DetectPairs call.
  uint64_t generation_ = 0;
  BatchStats stats_;
  /// Debug tripwire for the class's single-caller contract (cache_,
  /// generation_ and stats_ are unsynchronized on purpose — the Engine
  /// facade serializes on batch_mu_ above this layer). Every public entry
  /// point funnels into the ref-overload DetectPairs exactly once, which
  /// holds this count up while it runs; a nonzero count on entry means two
  /// callers are inside the engine at once and is DCHECK-failed rather
  /// than left to corrupt the memo cache silently.
  std::atomic<int> active_calls_{0};
};

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_BATCH_DETECTOR_H_
