#ifndef XMLUP_PATTERN_PATTERN_OPS_H_
#define XMLUP_PATTERN_PATTERN_OPS_H_

#include <vector>

#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Nodes on the path from `from` down to `to` in `p`, inclusive. Requires
/// `from` to be an ancestor-or-self of `to`.
std::vector<PatternNodeId> PathBetween(const Pattern& p, PatternNodeId from,
                                       PatternNodeId to);

/// SEQ_from^to (paper §2.2): the linear pattern consisting of the nodes on
/// the path from `from` to `to`, with the edges used on that path. The
/// extracted pattern's output node is its leaf (the image of `to`).
/// Requires `from` ancestor-or-self of `to`.
Pattern ExtractSeq(const Pattern& p, PatternNodeId from, PatternNodeId to);

/// SEQ_ROOT(p)^O(p): the "mainline" of a pattern — the linear pattern along
/// the path from the root to the output node. For a linear pattern this is
/// the pattern itself. This is the D' / I' of Lemmas 4 and 8.
Pattern Mainline(const Pattern& p);

/// SUBPATTERN_n(p): the subtree of `p` rooted at `n` as a standalone
/// pattern (its root's incoming axis is dropped); the output node is set to
/// the new root (the paper allows an arbitrary choice).
Pattern SubpatternAt(const Pattern& p, PatternNodeId n);

/// STAR-LENGTH(p): the number of nodes in the longest chain (consecutive
/// child edges) consisting solely of wildcard-labeled nodes.
size_t StarLength(const Pattern& p);

/// A model M_p of `p` (paper §2.3): a tree with the same shape where every
/// descendant edge becomes a child edge and every wildcard is relabeled
/// `star_fill`. There is always an embedding of p into M_p.
/// If `mapping` is non-null it receives pattern-node → tree-node.
Tree ModelTree(const Pattern& p, Label star_fill,
               std::vector<NodeId>* mapping = nullptr);

/// Grafts a model of SUBPATTERN_n(p) under `parent` in `tree` (used by the
/// witness constructions of Lemmas 3, 4, 6 and 8). Returns the root of the
/// grafted model.
NodeId GraftModel(Tree* tree, NodeId parent, const Pattern& p,
                  PatternNodeId subpattern_root, Label star_fill);

/// True if p and q are structurally identical patterns (same shape, labels,
/// axes and output node). Used for CSE in the analysis module.
bool PatternsIdentical(const Pattern& p, const Pattern& q);

/// Canonical string code of a pattern: label names plus incoming axes with
/// the children of every node in sorted code order, and the output node
/// marked. Two patterns have equal codes iff they are identical up to
/// sibling reordering (the pattern analogue of xml/isomorphism.h's
/// CanonicalCode). The code uses label *names*, so it is stable across
/// symbol tables — PatternStore interns patterns on it.
std::string CanonicalPatternCode(const Pattern& p);

/// Copies `src` (whole pattern) into `dst` as a new subtree under `parent`,
/// attaching src's root by `axis`. Output-node markings of `src` are
/// ignored. Returns the copy of src's root. Used by the §5 reductions to
/// assemble composite patterns such as α[β[p][γ]]/β[p'].
PatternNodeId GraftPattern(Pattern* dst, PatternNodeId parent,
                           const Pattern& src, Axis axis);

}  // namespace xmlup

#endif  // XMLUP_PATTERN_PATTERN_OPS_H_
