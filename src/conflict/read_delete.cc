#include "conflict/read_delete.h"

#include <string>

#include "conflict/update_op.h"
#include "conflict/witness_build.h"
#include "match/dp_matcher.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// Builds the Lemma 3 "(If)" witness for a node conflict found on the read
/// edge into `n_prime` and verifies it. `word` is the matching witness: the
/// label classes of the path from the tree root to the deletion point u.
Result<Tree> BuildNodeConflictWitness(const Pattern& read,
                                      const Pattern& delete_pattern,
                                      PatternNodeId n_prime,
                                      const ClassWord& word,
                                      ConflictSemantics semantics) {
  // Fillers: the word's Any classes, the read-suffix model's and the
  // branch models' wildcards, the Lemma 2 children.
  const std::vector<Label> fill =
      FillerLabels({&read, &delete_pattern}, {}, 4);
  NodeId u = kNullNode;
  Tree witness = MatchWordToPath(word, read.symbols(), fill[0], &u);

  if (read.axis(n_prime) == Axis::kDescendant) {
    // Descendant edge (n, n'): insert a model of SEQ_{n'}^{O(R)} as a child
    // of u; the read then selects a node inside the doomed subtree.
    const Pattern suffix = ExtractSeq(read, n_prime, read.output());
    GraftModel(&witness, u, suffix, suffix.root(), fill[1]);
  } else {
    // Child edge: u is the image of n' itself. If n' is not the output,
    // extend below u with a model of the rest of the read.
    if (n_prime != read.output()) {
      const PatternNodeId n_next = read.first_child(n_prime);
      const Pattern suffix = ExtractSeq(read, n_next, read.output());
      GraftModel(&witness, u, suffix, suffix.root(), fill[1]);
    }
  }
  GraftBranchModelsEverywhere(&witness, delete_pattern, fill[2]);
  return VerifiedWitness(
      std::move(witness), fill[3],
      [&](const Tree& t) {
        return IsReadDeleteWitness(read, delete_pattern, t, semantics);
      },
      "read-delete");
}

/// Builds a witness for the "deletion strictly below a read result" case
/// (tree/value semantics) from a weak match of D' against the whole read.
Result<Tree> BuildSubtreeModificationWitness(const Pattern& read,
                                             const Pattern& delete_pattern,
                                             const ClassWord& word,
                                             ConflictSemantics semantics) {
  const std::vector<Label> fill =
      FillerLabels({&read, &delete_pattern}, {}, 3);
  Tree witness = MatchWordToPath(word, read.symbols(), fill[0]);
  GraftBranchModelsEverywhere(&witness, delete_pattern, fill[1]);
  return VerifiedWitness(
      std::move(witness), fill[2],
      [&](const Tree& t) {
        return IsReadDeleteWitness(read, delete_pattern, t, semantics);
      },
      "read-delete subtree");
}

Status NonLinearReadError() {
  return Status::InvalidArgument(
      "read pattern must be linear (P^{//,*}) for polynomial detection");
}

}  // namespace

Result<ConflictReport> DetectReadDeleteConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& del,
    const Pattern& delete_pattern, ConflictSemantics semantics,
    bool build_witness) {
  XMLUP_RETURN_NOT_OK(ValidateDeletePattern(delete_pattern));

  // The compiled read *is* the mainline chain; for a linear read this is
  // the read itself (linear patterns are mainline fixpoints), so running
  // on it is the Lemma 3 edge scan verbatim. Corollary 1: only the
  // delete's mainline matters, and `del` is exactly that chain.
  const Pattern& r = read.mainline_pattern();

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemma 3: scan the read's edges (n, n') = (chain[k-1], chain[k]).
  const size_t length = read.chain_length();
  for (size_t k = 1; k < length; ++k) {
    const PatternNodeId n_prime = read.mainline_node(k);
    const bool descendant = r.axis(n_prime) == Axis::kDescendant;
    // Descendant edge: weak match against SEQ_ROOT^n (the parent's
    // prefix, k nodes); child edge: strong match against SEQ_ROOT^n'.
    MatchResult match = MatchDp(del.chain(),
                                read.prefix(descendant ? k : k + 1),
                                /*weak=*/descendant);
    if (!match.matches) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail = std::string("node conflict via ") +
                    (descendant ? "descendant" : "child") +
                    " edge into read node " + r.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildNodeConflictWitness(r, delete_pattern, n_prime,
                                   match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  // Tree / value semantics (equivalent for linear patterns, Lemma 2): a
  // conflict also exists when the deletion point can fall at-or-below a
  // read result, modifying the returned subtree.
  MatchResult below = MatchDp(del.chain(), read.chain(), /*weak=*/true);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (D weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildSubtreeModificationWitness(r, delete_pattern,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectLinearReadDeleteConflict(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics, bool build_witness) {
  if (!read.IsLinear()) return NonLinearReadError();
  return DetectReadDeleteConflictCompiled(
      CompiledPattern(read), CompiledPattern(delete_pattern), delete_pattern,
      semantics, build_witness);
}

Result<ConflictReport> DetectLinearReadDeleteConflict(
    const PatternStore& store, PatternRef read, PatternRef delete_pattern,
    ConflictSemantics semantics, bool build_witness) {
  if (!store.linear(read)) return NonLinearReadError();
  return DetectReadDeleteConflictCompiled(
      store.compiled(read), store.compiled(delete_pattern),
      store.pattern(delete_pattern), semantics, build_witness);
}

}  // namespace xmlup
