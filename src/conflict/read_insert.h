#ifndef XMLUP_CONFLICT_READ_INSERT_H_
#define XMLUP_CONFLICT_READ_INSERT_H_

#include "common/result.h"
#include "conflict/report.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"
#include "xml/tree.h"

namespace xmlup {

/// Polynomial-time read-insert conflict detection (§4.2).
///
/// `read` must be linear (P^{//,*}); `insert_pattern` may be any pattern in
/// P^{//,[],*} — by Lemma 8 / Corollary 2 only its mainline matters.
/// `inserted` is the tree X grafted at each insertion point.
///
/// Node semantics implements Lemmas 5-7: a conflict exists iff some read
/// edge (n, n') is a *cut edge*, i.e.
///   - child edge:      I' and SEQ_ROOT(R)^n match strongly, and
///                      SEQ_{n'}^{O(R)} embeds at the root of X;
///   - descendant edge: I' and SEQ_ROOT(R)^n match weakly, and
///                      SEQ_{n'}^{O(R)} embeds somewhere in X.
///
/// Tree semantics adds the case where an insertion lands at-or-below a read
/// result (I' weakly matched by the whole read); value semantics coincides
/// (Lemma 2). Witnesses are constructed per the proofs and re-validated
/// with the Lemma 1 checker.
/// Returns a ConflictReport with method == kLinearPtime and a definitive
/// verdict (the linear algorithms are complete — never kUnknown).
///
/// Compiles both operands on the spot and runs
/// DetectReadInsertConflictCompiled.
Result<ConflictReport> DetectLinearReadInsertConflict(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// The one implementation of the algorithm above, on compiled forms: each
/// edge's prefix test is one MatchDp call on a prefix view of the read's
/// chain, and the suffix SEQ_{n'}^O is extracted only at an edge whose
/// prefix matched. `read` is scanned along its mainline chain — for a
/// linear read that is the read itself; the detector's branching heuristic
/// passes a branching read's compiled form to get the Mainline(read)
/// answer. `insert_pattern` is the full insert (the witness construction
/// grafts its branch models); `ins` must be its compiled form.
Result<ConflictReport> DetectReadInsertConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& ins,
    const Pattern& insert_pattern, const Tree& inserted,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// Ref-based entry point: both patterns are interned refs resolved
/// against `store`; compiled forms are fetched (and lazily built) via
/// PatternStore::compiled(). The read ref must denote a linear pattern
/// (InvalidArgument otherwise, exactly like the value overload).
Result<ConflictReport> DetectLinearReadInsertConflict(
    const PatternStore& store, PatternRef read, PatternRef insert_pattern,
    const Tree& inserted,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_READ_INSERT_H_
