#include "conflict/read_insert.h"

#include <string>
#include <string_view>

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

/// Lemma 6's suffix test for the read edge into chain position k: SEQ_{n'}^O
/// embeds at the root of X (child edge) or somewhere in X (descendant
/// edge). A chain of at most 64 nodes runs the evaluator's chain walk on
/// the compiled suffix view; a longer one, like a longer Evaluate, takes
/// the general evaluator on the extracted suffix.
bool SuffixEmbeds(const CompiledPattern& read, size_t k, bool descendant,
                  const Tree& inserted) {
  const LinearChain suffix = read.suffix(k);
  if (suffix.size() <= 64) {
    return descendant ? EmbedsAnywhereIn(suffix, inserted, inserted.root())
                      : EmbedsAt(suffix, inserted, inserted.root());
  }
  const Pattern& r = read.mainline_pattern();
  const Pattern seq = ExtractSeq(r, read.mainline_node(k), r.output());
  return descendant ? EmbedsAnywhereIn(seq, inserted, inserted.root())
                    : EmbedsAt(seq, inserted, inserted.root());
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
  // a cut edge. The prefix SEQ_ROOT^n and the suffix SEQ_{n'}^O are both
  // views of the chain; the suffix is tested only at an edge whose prefix
  // matched.
  const size_t length = read.chain_length();
  for (size_t k = 1; k < length; ++k) {
    const PatternNodeId n_prime = read.mainline_node(k);
    const bool descendant = r.axis(n_prime) == Axis::kDescendant;
    MatchResult match = MatchDp(ins.chain(), read.prefix(k),
                                /*weak=*/descendant, build_witness);
    if (!match.matches) continue;
    if (!SuffixEmbeds(read, k, descendant, inserted)) continue;
    report.verdict = ConflictVerdict::kConflict;
    const std::string_view head = descendant
                                      ? "cut edge (descendant) into read node "
                                      : "cut edge (child) into read node ";
    const std::string& name = r.LabelName(n_prime);
    report.detail.reserve(head.size() + name.size());
    report.detail.append(head).append(name);
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
  MatchResult below =
      MatchDp(ins.chain(), read.chain(), /*weak=*/true, build_witness);
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

}  // namespace xmlup
