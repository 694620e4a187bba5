#include "conflict/witness_check.h"

#include <algorithm>
#include <set>

#include "conflict/update_op.h"
#include "eval/evaluator.h"
#include "xml/isomorphism.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Captures everything about R(t) needed by all three semantics, applies
/// `mutate`, then compares. NodeIds are stable across mutation, so
/// reference-based comparison is direct id comparison.
template <typename MutateFn>
bool CheckWitness(const Pattern& read, const Tree& original,
                  ConflictSemantics semantics, MutateFn mutate) {
  Tree t = CopyTree(original);
  const std::vector<NodeId> before = Evaluate(read, t);

  std::vector<SubtreeSnapshot> snapshots;
  std::set<std::string> codes_before;
  if (semantics == ConflictSemantics::kTree) {
    snapshots.reserve(before.size());
    for (NodeId n : before) snapshots.push_back(SnapshotSubtree(t, n));
  } else if (semantics == ConflictSemantics::kValue) {
    for (NodeId n : before) codes_before.insert(CanonicalCode(t, n));
  }

  mutate(&t);
  const std::vector<NodeId> after = Evaluate(read, t);

  switch (semantics) {
    case ConflictSemantics::kNode:
      return before != after;  // both sorted
    case ConflictSemantics::kTree: {
      if (before != after) return true;
      for (const SubtreeSnapshot& snapshot : snapshots) {
        if (!SnapshotUnchanged(t, snapshot)) return true;
      }
      return false;
    }
    case ConflictSemantics::kValue: {
      std::set<std::string> codes_after;
      for (NodeId n : after) codes_after.insert(CanonicalCode(t, n));
      return codes_before != codes_after;
    }
  }
  return false;
}

}  // namespace

std::string_view ConflictSemanticsName(ConflictSemantics semantics) {
  switch (semantics) {
    case ConflictSemantics::kNode:
      return "node";
    case ConflictSemantics::kTree:
      return "tree";
    case ConflictSemantics::kValue:
      return "value";
  }
  return "?";
}

bool IsReadInsertWitness(const Pattern& read, const Pattern& insert_pattern,
                         const Tree& inserted, const Tree& t,
                         ConflictSemantics semantics) {
  return CheckWitness(read, t, semantics, [&](Tree* tree) {
    InsertAt(tree, Evaluate(insert_pattern, *tree), inserted);
  });
}

bool IsReadDeleteWitness(const Pattern& read, const Pattern& delete_pattern,
                         const Tree& t, ConflictSemantics semantics) {
  XMLUP_CHECK(delete_pattern.output() != delete_pattern.root());
  return CheckWitness(read, t, semantics, [&](Tree* tree) {
    DeleteAt(tree, Evaluate(delete_pattern, *tree));
  });
}

}  // namespace xmlup
