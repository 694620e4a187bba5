#include "dtd/dtd_conflict.h"

namespace xmlup {
namespace {

/// Runs an unrestricted search instance over the DTD's labels too, with
/// conformance checked on each survivor before the witness check.
BruteForceResult SearchConforming(ShapeSearch search, const Dtd& dtd,
                                  const Pattern& read,
                                  const BoundedSearchOptions& options) {
  for (Label l : dtd.MentionedLabels()) search.labels.insert(l);
  search.is_witness = [&dtd, is_witness = std::move(search.is_witness)](
                          const Tree& candidate) {
    return dtd.Conforms(candidate) && is_witness(candidate);
  };
  return SearchShapes(read.symbols(), search, options);
}

}  // namespace

BruteForceResult FindReadInsertConflictUnderDtd(
    const Pattern& read, const Pattern& insert_pattern, const Tree& inserted,
    const Dtd& dtd, ConflictSemantics semantics,
    const BoundedSearchOptions& options) {
  return SearchConforming(
      ReadInsertSearch(read, insert_pattern, inserted, semantics), dtd, read,
      options);
}

BruteForceResult FindReadDeleteConflictUnderDtd(
    const Pattern& read, const Pattern& delete_pattern, const Dtd& dtd,
    ConflictSemantics semantics, const BoundedSearchOptions& options) {
  return SearchConforming(ReadDeleteSearch(read, delete_pattern, semantics),
                          dtd, read, options);
}

}  // namespace xmlup
