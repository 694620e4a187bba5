#include "conflict/commutativity.h"

#include "eval/evaluator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {

bool UpdatesCommuteOn(const Tree& t, const UpdateOp& o1, const UpdateOp& o2) {
  Tree order12 = CopyTree(t);
  o2.ApplyInPlace(&order12);
  o1.ApplyInPlace(&order12);
  Tree order21 = CopyTree(t);
  o1.ApplyInPlace(&order21);
  o2.ApplyInPlace(&order21);
  return CanonicalCode(order12) == CanonicalCode(order21);
}

BruteForceResult FindCommutativityViolation(
    const UpdateOp& o1, const UpdateOp& o2,
    const BoundedSearchOptions& options) {
  // Alphabet: labels of both patterns and the inserted trees, plus α. A
  // tree neither pattern embeds in is left unchanged by both orders.
  ShapeSearch search;
  for (const UpdateOp* op : {&o1, &o2}) {
    for (Label l : op->pattern().DistinctLabels()) search.labels.insert(l);
    if (op->kind() == UpdateOp::Kind::kInsert) {
      for (NodeId n : op->content().PreOrder()) {
        search.labels.insert(op->content().label(n));
      }
    }
  }
  search.patterns = {&o1.pattern(), &o2.pattern()};
  search.any_pattern = true;
  search.is_witness = [&](const Tree& candidate) {
    return !UpdatesCommuteOn(candidate, o1, o2);
  };
  return SearchShapes(o1.pattern().symbols(), search, options);
}

}  // namespace xmlup
