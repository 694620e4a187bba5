#include "conflict/containment.h"

#include <vector>

#include "conflict/minimize.h"
#include "eval/evaluator.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// The one pattern-homomorphism DP, shared by containment and
/// minimization. A homomorphism `from` → `to` maps root to root, child
/// edges onto child edges and descendant edges onto downward paths; a
/// wildcard in `from` maps anywhere, a concrete label only onto the same
/// concrete label (a wildcard in `to` stands for an arbitrary label, so it
/// cannot support a concrete requirement). With `preserve_output` it must
/// also map O(from) onto O(to).
///
/// hsat[x][y]: the subpattern of `from` rooted at x maps into `to` with
/// x ↦ y. dsat[x][y]: hsat[x][y'] for some proper descendant y' of y.
bool HasHomomorphism(const Pattern& from, const Pattern& to,
                     bool preserve_output) {
  const size_t stride = to.size();
  std::vector<bool> hsat(from.size() * stride, false);
  std::vector<bool> dsat(from.size() * stride, false);
  const std::vector<PatternNodeId> to_post = to.PostOrder();
  const std::vector<PatternNodeId> from_post = from.PostOrder();
  for (PatternNodeId y : to_post) {
    for (PatternNodeId x : from_post) {
      bool ok = from.is_wildcard(x) ||
                (!to.is_wildcard(y) && from.LabelName(x) == to.LabelName(y));
      if (preserve_output && x == from.output() && y != to.output()) {
        ok = false;
      }
      for (PatternNodeId xc = from.first_child(x);
           ok && xc != kNullPatternNode; xc = from.next_sibling(xc)) {
        bool edge_ok = false;
        for (PatternNodeId yc = to.first_child(y); yc != kNullPatternNode;
             yc = to.next_sibling(yc)) {
          if (from.axis(xc) == Axis::kChild) {
            edge_ok |= to.axis(yc) == Axis::kChild && hsat[xc * stride + yc];
          } else {
            edge_ok |= hsat[xc * stride + yc] || dsat[xc * stride + yc];
          }
          if (edge_ok) break;
        }
        ok = edge_ok;
      }
      hsat[x * stride + y] = ok;
      bool below = false;
      for (PatternNodeId yc = to.first_child(y);
           !below && yc != kNullPatternNode; yc = to.next_sibling(yc)) {
        below = hsat[x * stride + yc] || dsat[x * stride + yc];
      }
      dsat[x * stride + y] = below;
    }
  }
  return hsat[from.root() * stride + to.root()];
}

}  // namespace

bool HasContainmentHomomorphism(const Pattern& p, const Pattern& q) {
  return HasHomomorphism(q, p, /*preserve_output=*/false);
}

bool HasOutputPreservingHomomorphism(const Pattern& from, const Pattern& to) {
  return HasHomomorphism(from, to, /*preserve_output=*/true);
}

namespace {

/// Builds the canonical model of `p` for one assignment of chain lengths
/// to its descendant edges (indexed in preorder order of the lower node).
Tree BuildCanonicalModel(const Pattern& p,
                         const std::vector<PatternNodeId>& desc_nodes,
                         const std::vector<size_t>& chain_lengths, Label z) {
  Tree tree(p.symbols());
  auto fill = [&](PatternNodeId n) {
    return p.is_wildcard(n) ? z : p.label(n);
  };
  std::vector<NodeId> image(p.size(), kNullNode);
  image[p.root()] = tree.CreateRoot(fill(p.root()));
  for (PatternNodeId n : p.PreOrder()) {
    if (n == p.root()) continue;
    NodeId attach = image[p.parent(n)];
    if (p.axis(n) == Axis::kDescendant) {
      // Insert the chain of z nodes chosen for this edge.
      size_t index = 0;
      while (desc_nodes[index] != n) ++index;
      for (size_t i = 0; i < chain_lengths[index]; ++i) {
        attach = tree.AddChild(attach, z);
      }
    }
    image[n] = tree.AddChild(attach, fill(n));
  }
  return tree;
}

uint64_t SaturatingPow(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < exp; ++i) {
    if (result > UINT64_MAX / base) return UINT64_MAX;
    result *= base;
  }
  return result;
}

}  // namespace

ContainmentDecision DecideContainment(const Pattern& p, const Pattern& q) {
  ContainmentDecision decision;
  const Label z = p.symbols()->Fresh("z");
  const size_t w = StarLength(q) + 1;

  std::vector<PatternNodeId> desc_nodes;
  for (PatternNodeId n : p.PreOrder()) {
    if (n != p.root() && p.axis(n) == Axis::kDescendant) {
      desc_nodes.push_back(n);
    }
  }

  // Odometer over chain lengths in {0..w} per descendant edge.
  std::vector<size_t> lengths(desc_nodes.size(), 0);
  for (;;) {
    Tree model = BuildCanonicalModel(p, desc_nodes, lengths, z);
    ++decision.models_checked;
    if (!HasEmbedding(q, model)) {
      decision.contained = false;
      decision.counterexample = std::move(model);
      return decision;
    }
    // Advance the odometer.
    size_t i = 0;
    while (i < lengths.size() && lengths[i] == w) {
      lengths[i] = 0;
      ++i;
    }
    if (i == lengths.size()) break;
    ++lengths[i];
  }
  decision.contained = true;
  return decision;
}

uint64_t CanonicalModelCount(const Pattern& p, const Pattern& q) {
  size_t desc_edges = 0;
  for (PatternNodeId n : p.PreOrder()) {
    if (n != p.root() && p.axis(n) == Axis::kDescendant) ++desc_edges;
  }
  return SaturatingPow(StarLength(q) + 2, desc_edges);
}

}  // namespace xmlup
