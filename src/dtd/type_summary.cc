#include "dtd/type_summary.h"

#include <vector>

#include "common/check.h"

namespace xmlup {
namespace {

/// γ(n): the label class of one pattern node — ⊤ for wildcards.
TypeSet Gamma(const Pattern& pattern, PatternNodeId n) {
  return pattern.is_wildcard(n) ? TypeSet::Top()
                                : TypeSet::Of(pattern.label(n));
}

}  // namespace

TypeSet ChildTypes(const Dtd& dtd, const TypeSet& from) {
  if (from.top()) return TypeSet::Top();
  TypeSet out;
  for (Label l : from.labels()) {
    if (!dtd.IsSealed(l)) return TypeSet::Top();
    for (Label child : dtd.AllowedChildren(l)) out.Insert(child);
  }
  return out;
}

TypeSet ReachPlus(const Dtd& dtd, const TypeSet& from) {
  TypeSet out = ChildTypes(dtd, from);
  while (!out.top()) {
    TypeSet next = ChildTypes(dtd, out);
    if (next.top()) return next;
    const size_t before = out.labels().size();
    out.UnionWith(next);
    if (out.labels().size() == before) break;  // fixpoint
  }
  return out;
}

TypeSet ReachStar(const Dtd& dtd, const TypeSet& from) {
  TypeSet out = from;
  out.UnionWith(ReachPlus(dtd, from));
  return out;
}

TypeSummary ComputeTypeSummary(const Pattern& pattern, const Dtd& dtd) {
  XMLUP_CHECK(pattern.has_root());
  TypeSummary summary;
  // possible[n]: over-approximation of the types a conformant-document
  // image of node n can take. Embeddings are root-preserving, so the
  // pattern root is pinned to the schema's root label (when declared);
  // child edges step through the allow-graph, descendant edges through its
  // transitive closure. Ignoring `require` constraints only widens the
  // sets — sound.
  std::vector<TypeSet> possible(pattern.size());
  const std::vector<PatternNodeId> order = pattern.PreOrder();
  for (PatternNodeId n : order) {
    TypeSet base;
    if (n == pattern.root()) {
      base = dtd.root_label().has_value() ? TypeSet::Of(*dtd.root_label())
                                          : TypeSet::Top();
    } else {
      const TypeSet& parent = possible[pattern.parent(n)];
      base = pattern.axis(n) == Axis::kChild ? ChildTypes(dtd, parent)
                                             : ReachPlus(dtd, parent);
    }
    possible[n] = TypeSet::Intersect(base, Gamma(pattern, n));
    if (possible[n].empty()) summary.dead = true;
  }
  // touched: every node image plus, per descendant edge, the types of the
  // gap path between the endpoints (anything reachable from the parent's
  // types can sit on it).
  for (PatternNodeId n : order) {
    summary.touched.UnionWith(possible[n]);
    if (n != pattern.root() && pattern.axis(n) == Axis::kDescendant &&
        !possible[n].empty()) {
      summary.touched.UnionWith(ReachPlus(dtd, possible[pattern.parent(n)]));
    }
  }
  summary.output_types = possible[pattern.output()];
  summary.subtree = ReachStar(dtd, summary.output_types);
  // insert_sensitive is DTD-free by design (see type_summary.h): γ(output)
  // plus γ of every node outside the output's ancestor chain.
  summary.insert_sensitive = Gamma(pattern, pattern.output());
  for (PatternNodeId n : order) {
    if (!pattern.IsAncestorOrSelf(n, pattern.output())) {
      summary.insert_sensitive.UnionWith(Gamma(pattern, n));
    }
  }
  return summary;
}

TypeSet ContentLabels(const Tree& content) {
  TypeSet out;
  for (NodeId n : content.PreOrder()) out.Insert(content.label(n));
  return out;
}

bool TypePrunesReadDelete(const TypeSummary& read, const TypeSummary& update,
                          ConflictSemantics semantics) {
  // A schema-dead delete never fires on a conformant tree; a schema-dead
  // read has no matches before the delete and — matching being monotone
  // under node removal — none after.
  if (update.dead || read.dead) return true;
  // A delete conflicts only by removing or truncating something a match
  // touches: the deleted subtrees' types are ReachStar of the delete's
  // output types (== update.subtree), the read's exposed region its
  // touched types plus, under subtree-sensitive semantics, its result
  // subtrees. Deletes never create matches, so disjoint regions prove
  // independence.
  if (TypeSet::Intersects(read.touched, update.subtree)) return false;
  if (semantics != ConflictSemantics::kNode &&
      TypeSet::Intersects(read.subtree, update.subtree)) {
    return false;
  }
  return true;
}

bool TypePrunesReadInsert(const TypeSummary& read, const TypeSummary& update,
                          const Tree& content, ConflictSemantics semantics) {
  // A schema-dead insert pattern selects nothing on a conformant tree.
  if (update.dead) return true;
  // NOTE: read.dead must NOT prune inserts — the post-insert tree can
  // escape the schema and give a schema-dead read its first match.
  //
  // Inserts never destroy matches (old structure is untouched), so a
  // conflict needs either a brand-new match — which must map some pattern
  // node to an inserted node, hence supply a label from the DTD-free
  // insert-sensitivity set — or, under subtree-sensitive semantics, a
  // graft at or below an existing result node. The content walk tests
  // labels directly (== Intersects(ContentLabels(content), ...)) — this
  // runs per pair on the Stage 0 hot path, so it must not allocate: it
  // scans the node slots, whose live ones are exactly the tree's nodes.
  for (NodeId n = 0; n < content.capacity(); ++n) {
    if (content.alive(n) && read.insert_sensitive.Contains(content.label(n))) {
      return false;
    }
  }
  if (semantics != ConflictSemantics::kNode &&
      TypeSet::Intersects(update.output_types, read.subtree)) {
    return false;
  }
  return true;
}

ConflictReport TypePrunedReport() {
  ConflictReport report;
  report.verdict = ConflictVerdict::kNoConflict;
  report.method = DetectorMethod::kTypePruned;
  // Short enough for the small-string optimization: this report is minted
  // once per pruned pair on the hot path.
  report.detail = "schema-disjoint";
  return report;
}

}  // namespace xmlup
