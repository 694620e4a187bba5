#include "conflict/read_insert.h"

#include <string>

#include "conflict/witness_build.h"
#include "eval/evaluator.h"
#include "match/dp_matcher.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

/// Both read-insert witnesses are the match word's path with the insert's
/// branch models grafted everywhere: for a cut edge the word leads to the
/// insertion point u, and after the insertion the read continues inside
/// the copy of X (Lemma 6 "(If)"); for an insertion at or below a result
/// it leads to that result.
Result<Tree> BuildWitness(const Pattern& read, const Pattern& insert_pattern,
                          const Tree& inserted, const ClassWord& word,
                          ConflictSemantics semantics) {
  // Fillers: the word's Any classes, the branch models' wildcards, the
  // Lemma 2 children.
  const std::vector<Label> fill =
      FillerLabels({&read, &insert_pattern}, {&inserted}, 3);
  Tree witness = MatchWordToPath(word, read.symbols(), fill[0]);
  GraftBranchModelsEverywhere(&witness, insert_pattern, fill[1]);
  return VerifiedWitness(
      std::move(witness), fill[2],
      [&](const Tree& t) {
        return IsReadInsertWitness(read, insert_pattern, inserted, t,
                                   semantics);
      },
      "read-insert");
}

Status NonLinearReadError() {
  return Status::InvalidArgument(
      "read pattern must be linear (P^{//,*}) for polynomial detection");
}

}  // namespace

Result<ConflictReport> DetectReadInsertConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& ins,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, bool build_witness) {
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }

  // The compiled read *is* the mainline chain; for a linear read this is
  // the read itself. Corollary 2: only the insert's mainline matters, and
  // `ins` is exactly that chain.
  const Pattern& r = read.mainline_pattern();

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemmas 5-7: scan the read's edges (n, n') = (chain[k-1], chain[k]) for
  // a cut edge. The prefix SEQ_ROOT^n is a view of the chain; the suffix
  // SEQ_{n'}^O is extracted only at an edge whose prefix matched.
  const size_t length = read.chain_length();
  for (size_t k = 1; k < length; ++k) {
    const PatternNodeId n_prime = read.mainline_node(k);
    const bool descendant = r.axis(n_prime) == Axis::kDescendant;
    MatchResult match =
        MatchDp(ins.chain(), read.prefix(k), /*weak=*/descendant);
    if (!match.matches) continue;
    const Pattern suffix = ExtractSeq(r, n_prime, r.output());
    const bool suffix_ok =
        descendant ? EmbedsAnywhereIn(suffix, inserted, inserted.root())
                   : EmbedsAt(suffix, inserted, inserted.root());
    if (!suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail = std::string("cut edge (") +
                    (descendant ? "descendant" : "child") +
                    ") into read node " + r.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildWitness(r, insert_pattern, inserted,
                                     match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  // Tree / value semantics: an insertion at-or-below a read result
  // modifies the returned subtree (paper REMARKS after Theorem 2).
  MatchResult below = MatchDp(ins.chain(), read.chain(), /*weak=*/true);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildWitness(r, insert_pattern, inserted,
                                     below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectLinearReadInsertConflict(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, bool build_witness) {
  if (!read.IsLinear()) return NonLinearReadError();
  return DetectReadInsertConflictCompiled(
      CompiledPattern(read), CompiledPattern(insert_pattern), insert_pattern,
      inserted, semantics, build_witness);
}

Result<ConflictReport> DetectLinearReadInsertConflict(
    const PatternStore& store, PatternRef read, PatternRef insert_pattern,
    const Tree& inserted, ConflictSemantics semantics, bool build_witness) {
  if (!store.linear(read)) return NonLinearReadError();
  return DetectReadInsertConflictCompiled(
      store.compiled(read), store.compiled(insert_pattern),
      store.pattern(insert_pattern), inserted, semantics, build_witness);
}

}  // namespace xmlup
