#ifndef XMLUP_CONFLICT_WITNESS_CHECK_H_
#define XMLUP_CONFLICT_WITNESS_CHECK_H_

#include <string>

#include "pattern/pattern.h"
#include "xml/tree.h"

namespace xmlup {

/// The three conflict semantics of §3.
///  - kNode:  reference-based, node identity of [[p]] results
///            (Definitions 3 and 4).
///  - kTree:  reference-based, additionally requires the result *subtrees*
///            to be untouched.
///  - kValue: value-based, compares [[p]]_T results up to isomorphism
///            (Definitions 5 and 6).
enum class ConflictSemantics {
  kNode,
  kTree,
  kValue,
};

std::string_view ConflictSemanticsName(ConflictSemantics semantics);

/// Lemma 1: deciding whether a *given* tree t witnesses a conflict is
/// polynomial for all three semantics. These checkers never mutate the
/// caller's tree (they work on a copy).
///
/// Read-insert: true iff R(I(t)) differs from R(t) under `semantics`.
bool IsReadInsertWitness(const Pattern& read, const Pattern& insert_pattern,
                         const Tree& inserted, const Tree& t,
                         ConflictSemantics semantics);

/// Read-delete: true iff R(D(t)) differs from R(t) under `semantics`.
/// `delete_pattern` must have O(p) != ROOT(p).
bool IsReadDeleteWitness(const Pattern& read, const Pattern& delete_pattern,
                         const Tree& t, ConflictSemantics semantics);

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_WITNESS_CHECK_H_
