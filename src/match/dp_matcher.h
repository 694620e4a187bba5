#ifndef XMLUP_MATCH_DP_MATCHER_H_
#define XMLUP_MATCH_DP_MATCHER_H_

#include "match/matching.h"
#include "pattern/compiled_pattern.h"

namespace xmlup {

/// Direct dynamic-programming implementation of weak/strong matching,
/// realizing the REMARK in §4.1 ("one can use an algorithm based on
/// dynamic programming") — the production matcher: the linear detectors
/// call it on prefix views of compiled chains, and MatchStrongly and
/// MatchWeakly on their compiled operands. Conceptually it is reachability over the
/// grid of positions (i, j) — i nodes of l1 and j nodes of l2 matched onto
/// a common path — with gap moves wherever the next edge is a descendant
/// edge. O(|l1|·|l2|) states, breadth-first, so the witness word is a
/// shortest word of L(R(l1)) ∩ L(R(l2)) (or L(R(l2)·(.)*) when weak).
///
/// `weak` allows l1's output to lie strictly below l2's output. Both
/// chains must be non-empty. With `build_word` false the result carries
/// only `matches` (a verdict-only caller has no use for the word). The
/// grid and queue are per-thread scratch that keeps its capacity, so a
/// steady-state match allocates only its witness word.
MatchResult MatchDp(const LinearChain& l1, const LinearChain& l2, bool weak,
                    bool build_word = true);

}  // namespace xmlup

#endif  // XMLUP_MATCH_DP_MATCHER_H_
