#ifndef XMLUP_CONFLICT_MINIMIZE_H_
#define XMLUP_CONFLICT_MINIMIZE_H_

#include "pattern/pattern.h"

namespace xmlup {

/// Tree-pattern minimization in the spirit of Amer-Yahia, Cho, Lakshmanan
/// and Srivastava (the paper's reference [2]): remove predicate branches
/// that are implied by the rest of the pattern. Smaller patterns make
/// every downstream algorithm — evaluation, matching, conflict detection,
/// containment — cheaper.

/// Output-preserving pattern homomorphism `from` → `to`: root to root,
/// O(from) to O(to), labels compatible (wildcards in `from` map anywhere,
/// concrete labels only onto equal concrete labels), child edges onto
/// child edges, descendant edges onto downward paths. Its existence
/// implies [[to]](t) ⊆ [[from]](t) for every tree t. Runs on the same
/// homomorphism DP as HasContainmentHomomorphism (conflict/containment.cc).
bool HasOutputPreservingHomomorphism(const Pattern& from, const Pattern& to);

/// Removes redundant leaves: a non-output leaf x is deleted when the full
/// pattern maps homomorphically (output-preserving) into the pattern
/// without x — then both patterns return exactly the same result on every
/// tree. Iterates to a fixpoint. Sound for all of P^{//,[],*} (the result
/// is always equivalent); complete for homomorphism-characterizable
/// fragments.
Pattern MinimizePattern(const Pattern& p);

/// Removes `node` (which must be a leaf, not the root and not the output)
/// from `p`. Exposed for tests.
Pattern RemoveLeaf(const Pattern& p, PatternNodeId node);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_MINIMIZE_H_
