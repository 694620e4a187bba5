#include "conflict/witness_build.h"

#include <set>
#include <string>

#include "pattern/pattern_ops.h"

namespace xmlup {

std::vector<Label> FillerLabels(std::initializer_list<const Pattern*> patterns,
                                std::initializer_list<const Tree*> trees,
                                size_t count) {
  std::set<Label> taken;
  std::shared_ptr<SymbolTable> symbols;
  for (const Pattern* p : patterns) {
    for (Label label : p->DistinctLabels()) taken.insert(label);
    symbols = p->symbols();
  }
  for (const Tree* tree : trees) {
    if (tree == nullptr) continue;
    for (NodeId n : tree->PreOrder()) taken.insert(tree->label(n));
  }
  XMLUP_CHECK(symbols != nullptr);
  return symbols->ReservedOutside(taken, count);
}

Tree MatchWordToPath(const ClassWord& word,
                     const std::shared_ptr<SymbolTable>& symbols, Label filler,
                     NodeId* deepest) {
  XMLUP_CHECK(!word.empty());
  Tree tree = WordToPathTree(word, symbols, filler);
  if (deepest != nullptr) {
    NodeId n = tree.root();
    while (tree.first_child(n) != kNullNode) n = tree.first_child(n);
    *deepest = n;
  }
  return tree;
}

Result<Tree> VerifiedWitness(Tree witness, Label unique,
                             const std::function<bool(const Tree&)>& is_witness,
                             std::string_view what) {
  if (is_witness(witness)) return witness;
  for (NodeId n : witness.PreOrder()) witness.AddChild(n, unique);
  if (is_witness(witness)) return witness;
  return Status::Internal("constructed " + std::string(what) +
                          " witness failed verification");
}

void GraftBranchModelsEverywhere(Tree* tree, const Pattern& update,
                                 Label filler) {
  // Branch children: children of mainline nodes that are not themselves on
  // the mainline.
  std::vector<PatternNodeId> branches;
  for (PatternNodeId n : PathBetween(update, update.root(), update.output())) {
    for (PatternNodeId c = update.first_child(n); c != kNullPatternNode;
         c = update.next_sibling(c)) {
      if (!update.IsAncestorOrSelf(c, update.output())) branches.push_back(c);
    }
  }
  if (branches.empty()) return;
  // Snapshot the node set first: models are grafted onto the original
  // nodes only (the Lemma 4 proof adds M_c to each node of W).
  const std::vector<NodeId> nodes = tree->PreOrder();
  for (NodeId n : nodes) {
    for (PatternNodeId c : branches) {
      GraftModel(tree, n, update, c, filler);
    }
  }
}

}  // namespace xmlup
