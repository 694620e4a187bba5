#ifndef XMLUP_PATTERN_COMPILED_PATTERN_H_
#define XMLUP_PATTERN_COMPILED_PATTERN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "automata/regex.h"
#include "pattern/pattern.h"

namespace xmlup {

/// A linear pattern flattened for matching: the label class of each node,
/// root first, and the axis of the edge *into* each node (axes[0] belongs
/// to the root, is kChild and carries no meaning).
struct LinearChain {
  std::span<const LabelClass> classes;
  std::span<const Axis> axes;

  size_t size() const { return classes.size(); }
};

/// The compile-once form of one interned pattern: its mainline
/// (SEQ_ROOT^O(p)) with the chain of mainline node ids and, per chain
/// node, the label class and incoming axis the §4.1 DP matcher reads
/// (match/dp_matcher.h). The chain's first k+1 nodes are exactly the
/// prefix SEQ_ROOT^chain[k], so every prefix the linear detectors match
/// against is a view of the one chain — the form is linear in the
/// pattern's size, and a match allocates nothing to build its operands.
///
/// Immutable after construction; safe to share across threads.
class CompiledPattern {
 public:
  /// Compiles `stored` (any pattern; only its mainline chain is compiled).
  /// For a linear pattern the mainline is the pattern itself.
  explicit CompiledPattern(const Pattern& stored);

  CompiledPattern(const CompiledPattern&) = delete;
  CompiledPattern& operator=(const CompiledPattern&) = delete;

  /// Mainline(stored): the linear pattern along the root→output path.
  const Pattern& mainline_pattern() const { return mainline_; }

  /// Number of nodes on the mainline chain (>= 1).
  size_t chain_length() const { return chain_.size(); }

  /// Node id of chain position `k` *within mainline_pattern()* (k = 0 is
  /// the root, k = chain_length()-1 the output).
  PatternNodeId mainline_node(size_t k) const { return chain_[k]; }

  /// The first `nodes` chain nodes: SEQ_ROOT^chain[nodes-1] as the matcher
  /// reads it. `nodes` must be in [1, chain_length()].
  LinearChain prefix(size_t nodes) const {
    return {std::span<const LabelClass>(classes_).first(nodes),
            std::span<const Axis>(axes_).first(nodes)};
  }

  /// The whole mainline chain (== prefix(chain_length())).
  LinearChain chain() const { return prefix(chain_.size()); }

  /// Retained-storage estimate, for the store.nfa.bytes counter.
  size_t bytes() const { return bytes_; }

 private:
  Pattern mainline_;
  std::vector<PatternNodeId> chain_;
  std::vector<LabelClass> classes_;
  std::vector<Axis> axes_;
  size_t bytes_ = 0;
};

}  // namespace xmlup

#endif  // XMLUP_PATTERN_COMPILED_PATTERN_H_
