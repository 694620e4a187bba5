#include "conflict/minimize.h"

#include <vector>

#include "common/check.h"

namespace xmlup {

Pattern RemoveLeaf(const Pattern& p, PatternNodeId node) {
  XMLUP_CHECK(node != p.root());
  XMLUP_CHECK(node != p.output());
  XMLUP_CHECK(p.first_child(node) == kNullPatternNode);
  Pattern reduced(p.symbols());
  std::vector<PatternNodeId> image(p.size(), kNullPatternNode);
  image[p.root()] = reduced.CreateRoot(p.label(p.root()));
  for (PatternNodeId n : p.PreOrder()) {
    if (n == p.root() || n == node) continue;
    image[n] = reduced.AddChild(image[p.parent(n)], p.label(n), p.axis(n));
  }
  reduced.SetOutput(image[p.output()]);
  return reduced;
}

Pattern MinimizePattern(const Pattern& p) {
  Pattern current = p;
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (PatternNodeId n : current.PreOrder()) {
      if (n == current.root() || n == current.output()) continue;
      if (current.first_child(n) != kNullPatternNode) continue;
      Pattern reduced = RemoveLeaf(current, n);
      // The reduced pattern trivially contains the original (fewer
      // constraints, same output position); equality needs the converse,
      // certified by an output-preserving homomorphism original → reduced.
      if (HasOutputPreservingHomomorphism(current, reduced)) {
        current = std::move(reduced);
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace xmlup
