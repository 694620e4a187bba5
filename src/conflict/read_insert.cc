#include "conflict/read_insert.h"

#include <string>

#include "conflict/witness_build.h"
#include "eval/evaluator.h"
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

}  // namespace

Result<ConflictReport> DetectLinearReadInsertConflict(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, MatcherKind matcher, bool build_witness) {
  if (!read.IsLinear()) {
    return Status::InvalidArgument(
        "read pattern must be linear (P^{//,*}) for polynomial detection");
  }
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }

  // Corollary 2: only the insert's mainline matters.
  const Pattern mainline = Mainline(insert_pattern);

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  // Lemmas 5-7: scan the read's edges for a cut edge.
  for (PatternNodeId n_prime : read.PreOrder()) {
    if (n_prime == read.root()) continue;
    const PatternNodeId n = read.parent(n_prime);
    const Pattern prefix = ExtractSeq(read, read.root(), n);
    const Pattern suffix = ExtractSeq(read, n_prime, read.output());
    MatchResult match;
    bool suffix_ok = false;
    if (read.axis(n_prime) == Axis::kChild) {
      match = MatchStrongly(mainline, prefix, matcher);
      if (match.matches) {
        suffix_ok = EmbedsAt(suffix, inserted, inserted.root());
      }
    } else {
      match = MatchWeakly(mainline, prefix, matcher);
      if (match.matches) {
        suffix_ok = EmbedsAnywhereIn(suffix, inserted, inserted.root());
      }
    }
    if (!match.matches || !suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail =
        std::string("cut edge (") +
        (read.axis(n_prime) == Axis::kDescendant ? "descendant" : "child") +
        ") into read node " + read.LabelName(n_prime);
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness, BuildWitness(read, insert_pattern, inserted,
                                            match.witness_word, semantics));
      report.witness = std::move(witness);
    }
    return report;
  }

  if (semantics == ConflictSemantics::kNode) return report;

  // Tree / value semantics: an insertion at-or-below a read result
  // modifies the returned subtree (paper REMARKS after Theorem 2).
  MatchResult below = MatchWeakly(mainline, read, matcher);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildWitness(read, insert_pattern, inserted,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectReadInsertConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& ins,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics, MatcherKind matcher, bool build_witness) {
  if (!inserted.has_root()) {
    return Status::InvalidArgument("inserted tree X is empty");
  }

  // The compiled read *is* the mainline chain; for a linear read this is
  // the read itself. Chain index k carries both the prefix SEQ_ROOT^n
  // (k-1) and the suffix SEQ_{n'}^O (k) the Lemma 5-7 cut-edge test needs,
  // precompiled.
  const Pattern& r = read.mainline_pattern();

  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kLinearPtime;

  const size_t length = read.chain_length();
  for (size_t k = 1; k < length; ++k) {
    const PatternNodeId n_prime = read.mainline_node(k);
    MatchResult match;
    bool suffix_ok = false;
    if (r.axis(n_prime) == Axis::kChild) {
      match = MatchCompiled(ins, read, k - 1, /*weak=*/false, matcher);
      if (match.matches) {
        suffix_ok =
            EmbedsAt(read.suffix_pattern(k), inserted, inserted.root());
      }
    } else {
      match = MatchCompiled(ins, read, k - 1, /*weak=*/true, matcher);
      if (match.matches) {
        suffix_ok = EmbedsAnywhereIn(read.suffix_pattern(k), inserted,
                                     inserted.root());
      }
    }
    if (!match.matches || !suffix_ok) continue;
    report.verdict = ConflictVerdict::kConflict;
    report.detail =
        std::string("cut edge (") +
        (r.axis(n_prime) == Axis::kDescendant ? "descendant" : "child") +
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

  MatchResult below = MatchCompiled(ins, read, length - 1, /*weak=*/true,
                                    matcher);
  if (below.matches) {
    report.verdict = ConflictVerdict::kConflict;
    report.detail = "subtree-modification conflict (I weakly matches R)";
    if (build_witness) {
      XMLUP_ASSIGN_OR_RETURN(
          Tree witness,
          BuildWitness(r, insert_pattern, inserted,
                                          below.witness_word, semantics));
      report.witness = std::move(witness);
    }
  }
  return report;
}

Result<ConflictReport> DetectLinearReadInsertConflict(
    const PatternStore& store, PatternRef read, PatternRef insert_pattern,
    const Tree& inserted, ConflictSemantics semantics, MatcherKind matcher,
    bool build_witness) {
  if (!store.linear(read)) {
    return Status::InvalidArgument(
        "read pattern must be linear (P^{//,*}) for polynomial detection");
  }
  return DetectReadInsertConflictCompiled(
      store.compiled(read), store.compiled(insert_pattern),
      store.pattern(insert_pattern), inserted, semantics, matcher,
      build_witness);
}

}  // namespace xmlup
