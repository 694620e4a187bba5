#ifndef XMLUP_MATCH_MATCHING_H_
#define XMLUP_MATCH_MATCHING_H_

#include "automata/nfa_ops.h"
#include "automata/regex.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Result of a weak/strong matching query. When `matches` is true,
/// `witness_word` holds the labels (symbol classes) of a root-to-deepest
/// path of a tree witnessing the match; Any classes may be resolved to an
/// arbitrary (e.g. fresh) label.
struct MatchResult {
  bool matches = false;
  ClassWord witness_word;
};

/// The paper's R(n) construction (§4.1): the regular expression derived
/// from a linear pattern — root symbol, `·sym` per child edge,
/// `·(.)*·sym` per descendant edge.
Regex LinearPatternToRegex(const Pattern& linear);

/// Definition 7. `l1` and `l2` must be linear patterns.
///
/// Strong: some tree embeds both with E1(O(l1)) = E2(O(l2))
///         — L(r1) ∩ L(r2) ≠ ∅.
/// Weak:   additionally allows E1(O(l1)) to be a *descendant* of E2(O(l2))
///         — L(r1) ∩ L(r2·(.)*) ≠ ∅. (Note the asymmetry: l1's output is
///         the deeper one.)
///
/// Both compile their operands on the spot and run the dynamic-programming
/// matcher of match/dp_matcher.h, MatchDp, on their chains — the matcher
/// the linear detectors call directly on prefix views of compiled chains.
MatchResult MatchStrongly(const Pattern& l1, const Pattern& l2);
MatchResult MatchWeakly(const Pattern& l1, const Pattern& l2);

/// The §4.1 construction itself, kept as the reference the DP matcher is
/// tested against: regular expressions R(l1) and R(l2) (or R(l2)·(.)* when
/// `weak`), their Thompson NFAs, and a breadth-first search of the product
/// automaton for a shortest common word. Same answers as MatchStrongly /
/// MatchWeakly; the witness word may differ between equally short words.
MatchResult MatchViaNfa(const Pattern& l1, const Pattern& l2, bool weak);

/// Materializes a witness word as a path tree, resolving Any classes to
/// `filler`. The word must be non-empty.
Tree WordToPathTree(const ClassWord& word,
                    const std::shared_ptr<SymbolTable>& symbols,
                    Label filler);

}  // namespace xmlup

#endif  // XMLUP_MATCH_MATCHING_H_
