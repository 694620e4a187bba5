#ifndef XMLUP_CONFLICT_CONTAINMENT_H_
#define XMLUP_CONFLICT_CONTAINMENT_H_

#include <cstdint>
#include <optional>

#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// XPath tree-pattern containment (Definition 11): p ⊆ q iff every tree
/// with an embedding of p also has an embedding of q. The paper's
/// NP-hardness reductions (Theorems 4 and 6) are from *non*-containment,
/// following Miklau & Suciu [12], who showed containment for P^{//,[],*}
/// is coNP-complete.

/// Sound but incomplete polynomial test: a pattern homomorphism q → p
/// (root to root; labels compatible; child edges to child edges;
/// descendant edges to downward paths) implies p ⊆ q. Absence implies
/// nothing.
bool HasContainmentHomomorphism(const Pattern& p, const Pattern& q);

/// For the output-preserving strengthening (additionally maps O(q) to
/// O(p), giving *selected-node* containment — what the lint
/// shadowed-update pass needs), see HasOutputPreservingHomomorphism in
/// conflict/minimize.h.

/// Exact decision via canonical models: p ⊆ q iff q embeds into every
/// canonical model of p, where canonical models replace each wildcard with
/// a fresh symbol z and each descendant edge with a chain of 0..w z-nodes,
/// w = STAR-LENGTH(q) + 1. Exponential in the number of descendant edges
/// of p ((w+1)^d models); exact for the paper's fragment.
struct ContainmentDecision {
  bool contained = false;
  /// When not contained: a canonical model of p with no embedding of q
  /// (the t_p of the reduction witnesses, Figures 7d and 8c).
  std::optional<Tree> counterexample;
  /// Number of canonical models checked before deciding.
  uint64_t models_checked = 0;
};

ContainmentDecision DecideContainment(const Pattern& p, const Pattern& q);

/// Number of canonical models the exact decision would enumerate —
/// (w+1)^d; used by benchmark E6.
uint64_t CanonicalModelCount(const Pattern& p, const Pattern& q);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_CONTAINMENT_H_
