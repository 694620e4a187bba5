#ifndef XMLUP_EVAL_EVALUATOR_H_
#define XMLUP_EVAL_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Evaluates [[p]](t) (paper §2.3): the set of tree nodes v such that some
/// embedding of p into t maps O(p) to v. Embeddings are root-preserving,
/// label-preserving (wildcards match anything), need not be injective, and
/// must satisfy the child/descendant edge constraints.
///
/// Runs in O(|p|·|t|): one descending-id sweep computes, per tree node, the
/// pattern nodes whose subpattern embeds there (PatternMasks::Step), and
/// one ascending-id sweep carries the root-to-output candidates down — the
/// Core-XPath-style evaluation the paper cites ([7]) for the polynomial
/// cost of its operations. The result is sorted and duplicate-free.
std::vector<NodeId> Evaluate(const Pattern& p, const Tree& t);

/// True iff [[p]](t) is non-empty, i.e. some embedding of p into t exists.
bool HasEmbedding(const Pattern& p, const Tree& t);

/// True iff there is an embedding of `p` into the subtree of `t` rooted at
/// `at` that maps ROOT(p) to `at` (anchored, not root-preserving w.r.t. t).
/// Used for "there is an embedding from SEQ into X" (Lemma 6) and by the
/// containment checker.
bool EmbedsAt(const Pattern& p, const Tree& t, NodeId at);

/// True iff EmbedsAt(p, t, n) holds for some node n in the subtree rooted
/// at `scope` ("an embedding into X or some subtree of X", Lemma 6).
bool EmbedsAnywhereIn(const Pattern& p, const Tree& t, NodeId scope);

/// Number of distinct embeddings of `p` into `t` (root-preserving), in
/// O(|p|·|t|) by dynamic programming — the polynomial counterpart of
/// EnumerateEmbeddings. Saturates at UINT64_MAX.
uint64_t CountEmbeddings(const Pattern& p, const Tree& t);

/// The word-parallel form of a forest of patterns, shared by the evaluator
/// and the bounded search's per-shape filter. Node q of the i-th pattern is
/// bit Bit(i, q) of a row of words() 64-bit words. Compiling keeps, as
/// rows: per label, the nodes whose label test accepts it (wildcards
/// folded in); the leaves; and per inner node, its child-axis and
/// descendant-axis children, only for the words that hold them.
class PatternMasks {
 public:
  explicit PatternMasks(std::span<const Pattern* const> patterns);

  size_t words() const { return words_; }
  size_t Bit(size_t pattern, PatternNodeId q) const {
    return offsets_[pattern] + q;
  }

  /// The nodes whose label test accepts `label`.
  const uint64_t* LabelRow(Label label) const;

  /// The recurrence at one node n with label row `labels`, given cs and cb,
  /// the unions of n's children's sat and below rows. q is in sat(n) iff
  /// its label test accepts n, its child-axis children are in cs and its
  /// descendant-axis children are in cb; below(n) = sat(n) ∪ cb, i.e. the
  /// nodes that embed at n or under it. `below` may alias `cb`; `sat`
  /// aliases neither input. O(|p|) at any pattern size, and the same work
  /// at every node: no branch depends on the node.
  void Step(const uint64_t* labels, const uint64_t* cs, const uint64_t* cb,
            uint64_t* sat, uint64_t* below) const;

  static bool Test(const uint64_t* row, size_t bit) {
    return (row[bit / 64] >> (bit % 64)) & 1;
  }

 private:
  /// An inner node, with its needs at needs_[begin, end).
  struct Inner {
    uint32_t bit;
    uint32_t begin;
    uint32_t end;
  };
  /// The children of one inner node that lie in one word.
  struct Need {
    uint32_t word;
    uint64_t child;
    uint64_t desc;
  };

  size_t words_ = 0;
  std::vector<size_t> offsets_;
  /// The forest's distinct labels other than *; label i has row i, any
  /// other label row labels_.size(), and the leaves the row after it.
  std::vector<Label> labels_;
  std::vector<uint64_t> rows_;
  std::vector<Inner> inner_;
  std::vector<Need> needs_;
};

// Step and LabelRow run once per tree node or shape: defined here so both
// sweeps inline them.

inline const uint64_t* PatternMasks::LabelRow(Label label) const {
  size_t row = labels_.size();
  for (size_t i = 0; i < labels_.size(); ++i) {
    row = labels_[i] == label ? i : row;
  }
  return &rows_[row * words_];
}

inline void PatternMasks::Step(const uint64_t* labels, const uint64_t* cs,
                               const uint64_t* cb, uint64_t* sat,
                               uint64_t* below) const {
  // Locals, since stores to the rows could otherwise alias the members.
  const size_t words = words_;
  const uint64_t* const leaves = &rows_[(labels_.size() + 1) * words];
  const Need* const needs = needs_.data();
  for (size_t w = 0; w < words; ++w) sat[w] = labels[w] & leaves[w];
  for (const Inner& inner : inner_) {
    uint64_t missing = 0;
    for (uint32_t k = inner.begin; k < inner.end; ++k) {
      missing |= (needs[k].child & ~cs[needs[k].word]) |
                 (needs[k].desc & ~cb[needs[k].word]);
    }
    const size_t w = inner.bit / 64;
    const uint64_t mask = uint64_t{1} << (inner.bit % 64);
    sat[w] |= labels[w] & mask & (missing == 0 ? ~uint64_t{0} : 0);
  }
  for (size_t w = 0; w < words; ++w) below[w] = sat[w] | cb[w];
}

}  // namespace xmlup

#endif  // XMLUP_EVAL_EVALUATOR_H_
