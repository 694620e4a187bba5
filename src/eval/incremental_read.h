#ifndef XMLUP_EVAL_INCREMENTAL_READ_H_
#define XMLUP_EVAL_INCREMENTAL_READ_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Incrementally maintained result set of a *linear* read over a mutating
/// tree — the caching a conflict-aware compiler performs (§1): instead of
/// re-evaluating `read $x//A` after every update, maintain it and repair
/// only what the update touched.
///
/// Why linearity makes this easy: for patterns without predicates, whether
/// a node is selected depends only on the labels along its root path.
/// Insertions never change existing paths, so a fresh copy of X only
/// *adds* results (computable locally from the state at the insertion
/// point); deletions only *remove* results (the ones inside deleted
/// subtrees — detectable via tombstones). With predicates this locality
/// breaks (an insertion can toggle ancestors' predicate satisfaction far
/// away), which is the same structural fact that makes branching conflict
/// detection NP-complete.
///
/// Implementation: per node two bitmasks over pattern prefix lengths
/// 0..m —
///   S(n): prefix lengths i with an embedding of p[0..i-1] whose last node
///         maps to n exactly;
///   G(n): union of S over n and its ancestors (prefixes that can resume
///         at or below n via a descendant edge).
/// A node is a result iff m ∈ S(n). Patterns up to 63 nodes are
/// supported (one word per mask).
class IncrementalRead {
 public:
  /// Builds the initial result set. The pattern must be linear with at
  /// most 63 nodes; `tree` must outlive this object and every mutation
  /// must be reported via OnInsert/OnDeleteApplied.
  static Result<IncrementalRead> Make(Pattern linear, const Tree* tree);

  /// Current results, sorted. O(1) when clean; prunes lazily after
  /// deletions.
  const std::vector<NodeId>& Results();

  /// Repairs the result set after an insert grafted the copies rooted at
  /// `copy_roots` under `points` (parallel vectors, as in
  /// UpdateOp::Applied) on the watched tree: walks only the fresh copies.
  void OnInsert(const std::vector<NodeId>& points,
                const std::vector<NodeId>& copy_roots);

  /// Repairs after a deletion (any number of DeleteSubtree calls): results
  /// inside deleted subtrees are tombstoned and pruned.
  void OnDelete();

  /// Full recomputation (used by tests to cross-check the incremental
  /// path, and by callers as an escape hatch).
  void Rebuild();

  const Pattern& pattern() const { return pattern_; }

 private:
  IncrementalRead(Pattern pattern, const Tree* tree);

  bool LabelOk(PatternNodeId q, NodeId n) const;
  /// Computes S/G for `node` from its parent's masks and records results.
  void VisitNode(NodeId node, uint64_t parent_s, uint64_t parent_g);
  /// DFS over the subtree rooted at `root` given its parent's masks.
  void VisitSubtree(NodeId root, uint64_t parent_s, uint64_t parent_g);
  void EnsureCapacity();

  Pattern pattern_;
  const Tree* tree_;
  size_t m_ = 0;  // pattern length
  /// Flattened pattern: label per position, axis of the edge *into* each
  /// position (position 0 = root).
  std::vector<PatternNodeId> flat_;
  std::vector<uint64_t> s_mask_;
  std::vector<uint64_t> g_mask_;
  std::vector<NodeId> results_;
  bool needs_prune_ = false;
};

}  // namespace xmlup

#endif  // XMLUP_EVAL_INCREMENTAL_READ_H_
