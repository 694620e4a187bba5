#ifndef XMLUP_AUTOMATA_NFA_OPS_H_
#define XMLUP_AUTOMATA_NFA_OPS_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "automata/nfa.h"

namespace xmlup {

/// A word over symbol classes; each element is either a concrete label or
/// "any" (resolved to a caller-chosen filler when materialized).
using ClassWord = std::vector<LabelClass>;

/// Decides emptiness of L(a) ∩ L(b) by BFS over the product automaton with
/// symbolic class intersection (§4.1: "construct non-deterministic finite
/// state automata ... verify in time polynomial ... whether the
/// intersection is non-empty").
bool IntersectionNonEmpty(const Nfa& a, const Nfa& b);

/// Like IntersectionNonEmpty, but returns a shortest witness word of the
/// intersection (nullopt if empty). The word's Any classes may be resolved
/// to any label; the matching module resolves them to a filler symbol when
/// building witness trees.
std::optional<ClassWord> IntersectionWitness(const Nfa& a, const Nfa& b);

/// An empty stub: nothing in the library memoizes products, because the
/// linear detectors match with the DP matcher on compiled chains
/// (match/dp_matcher.h), which builds no automata. It stays only because
/// the repository benchmark (xbench/src/harness.cc) still calls
/// Default().Clear() and .size(); delete it together with those calls.
class NfaProductCache {
 public:
  /// Always 0: nothing is retained.
  size_t size() const { return 0; }

  /// No-op.
  void Clear() {}

  /// Process-wide instance.
  static NfaProductCache& Default() {
    static NfaProductCache cache;
    return cache;
  }
};

}  // namespace xmlup

#endif  // XMLUP_AUTOMATA_NFA_OPS_H_
