#ifndef XMLUP_CONFLICT_WITNESS_BUILD_H_
#define XMLUP_CONFLICT_WITNESS_BUILD_H_

#include <functional>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "match/matching.h"
#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// Helpers shared by the witness constructions of the linear read-delete
/// and read-insert detectors (proofs of Lemmas 3, 4, 6 and 8).

/// The labels a witness construction fills in, one per role (the Any
/// classes of the match word, the wildcards of each kind of model, the
/// Lemma 2 uniquifying children): `count` pairwise distinct labels that no
/// pattern in `patterns` and no non-null tree in `trees` uses. They come
/// from the table's reserved pool as the bounded searches' α do, so
/// repeated constructions mint nothing. Every construction verifies its
/// witness, so a pick that breaks one is an error, never a wrong verdict.
std::vector<Label> FillerLabels(std::initializer_list<const Pattern*> patterns,
                                std::initializer_list<const Tree*> trees,
                                size_t count);

/// Materializes a match witness word as a path tree whose Any classes are
/// resolved to `filler`, a label no pattern of the construction uses.
/// Returns the tree; `deepest` (optional) receives the last node of the
/// path — the image of O(l1) in the match.
Tree MatchWordToPath(const ClassWord& word,
                     const std::shared_ptr<SymbolTable>& symbols, Label filler,
                     NodeId* deepest = nullptr);

/// The last step of every construction: `witness` if `is_witness` accepts
/// it; else, by Lemma 2, `witness` with a child labeled `unique` under
/// every node, so that a changed result keeps no isomorphic partner (a
/// node-conflict witness need not witness a value conflict, Figure 3); an
/// Internal error naming `what` if that is rejected too.
Result<Tree> VerifiedWitness(Tree witness, Label unique,
                             const std::function<bool(const Tree&)>& is_witness,
                             std::string_view what);

/// Lemma 4 / Lemma 8 extension step: for every branch subpattern of
/// `update` (a child subtree hanging off the root→output mainline), grafts
/// a model of that subpattern onto every pre-existing node of `tree`, so
/// any embedding of the mainline extends to an embedding of the full
/// pattern. Wildcards in the models are filled with `filler`.
void GraftBranchModelsEverywhere(Tree* tree, const Pattern& update,
                                 Label filler);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_WITNESS_BUILD_H_
