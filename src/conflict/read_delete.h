#ifndef XMLUP_CONFLICT_READ_DELETE_H_
#define XMLUP_CONFLICT_READ_DELETE_H_

#include "common/result.h"
#include "conflict/report.h"
#include "conflict/witness_check.h"
#include "match/matching.h"
#include "pattern/compiled_pattern.h"
#include "pattern/pattern.h"
#include "pattern/pattern_store.h"

namespace xmlup {

/// Polynomial-time read-delete conflict detection (§4.1).
///
/// `read` must be linear (P^{//,*}); `delete_pattern` may be any pattern in
/// P^{//,[],*} with O(p) != ROOT(p) — by Lemma 4 / Corollary 1 only the
/// delete's mainline SEQ_ROOT(D)^O(D) matters.
///
/// Node semantics implements Lemma 3: a conflict exists iff some edge
/// (n, n') of the read pattern satisfies
///   - (n, n') ∈ EDGES_//:  D' and SEQ_ROOT(R)^n match weakly, or
///   - (n, n') ∈ EDGES_/:   D' and SEQ_ROOT(R)^n' match strongly.
///
/// Tree semantics adds the case where the deletion happens strictly below a
/// read result (D' weakly matched by the whole read); by Lemma 2, value
/// semantics coincides with tree semantics for linear patterns.
///
/// On conflict, a witness tree is constructed per the Lemma 3/4 proofs and
/// re-validated with the Lemma 1 checker; a verification failure (a library
/// bug) surfaces as an Internal error.
/// Returns a ConflictReport with method == kLinearPtime and a definitive
/// verdict (the linear algorithms are complete — never kUnknown).
///
/// Compiles both operands on the spot and runs
/// DetectReadDeleteConflictCompiled.
Result<ConflictReport> DetectLinearReadDeleteConflict(
    const Pattern& read, const Pattern& delete_pattern,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// The one implementation of the algorithm above, on compiled forms: each
/// edge test is one MatchDp call on a prefix view of the read's chain.
/// `read` is scanned along its mainline chain — for a linear read that is
/// the read itself; the detector's branching heuristic passes a branching
/// read's compiled form to get the Mainline(read) answer.
/// `delete_pattern` is the full delete (the witness construction grafts
/// its branch models); `del` must be its compiled form.
Result<ConflictReport> DetectReadDeleteConflictCompiled(
    const CompiledPattern& read, const CompiledPattern& del,
    const Pattern& delete_pattern,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

/// Ref-based entry point: both patterns are interned refs resolved
/// against `store`; compiled forms are fetched (and lazily built) via
/// PatternStore::compiled(). The read ref must denote a linear pattern and
/// the delete ref must not select the root — both violations return
/// InvalidArgument, exactly like the value overload.
Result<ConflictReport> DetectLinearReadDeleteConflict(
    const PatternStore& store, PatternRef read, PatternRef delete_pattern,
    ConflictSemantics semantics = ConflictSemantics::kNode,
    bool build_witness = true);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_READ_DELETE_H_
