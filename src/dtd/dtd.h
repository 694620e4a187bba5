#ifndef XMLUP_DTD_DTD_H_
#define XMLUP_DTD_DTD_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/tree.h"

namespace xmlup {

/// A simple schema abstraction in the spirit of §6 "Schema Information".
/// Because the paper's data model is unordered, content models degenerate
/// to child-label constraints: per parent label, an optional closed set of
/// allowed child labels and a set of required child labels. (Order-aware
/// DTD content models have no meaning over unordered trees.)
class Dtd {
 public:
  explicit Dtd(std::shared_ptr<SymbolTable> symbols);

  /// Parses a schema from a simple line-oriented declaration syntax
  /// (order-free counterpart of DTD element declarations):
  ///
  ///   # comment
  ///   root catalog
  ///   allow  book : title author publisher stock
  ///   require book : title
  ///   seal   title
  ///
  /// `allow` seals the parent and whitelists the listed children;
  /// `require` demands at least one child with each listed label; `seal`
  /// alone makes a label a leaf.
  static Result<Dtd> Parse(std::string_view text,
                           std::shared_ptr<SymbolTable> symbols);

  /// Restricts `parent`'s children to an explicit allow-list; Allow() adds
  /// to it. A label never Seal()-ed accepts any children.
  void Seal(Label parent);
  void Allow(Label parent, Label child);

  /// Requires every `parent`-labeled node to have at least one `child`-
  /// labeled child.
  void Require(Label parent, Label child);

  /// Restricts the document root's label.
  void SetRootLabel(Label label) { root_label_ = label; }

  /// Rejects self-contradictory schemas: a sealed label whose
  /// RequiredChildren are not all ChildAllowed can never have a conforming
  /// node, so every type footprint computed under it silently collapses to
  /// empty. Parse() validates automatically; programmatic builders (Seal /
  /// Allow / Require) call this once construction is done.
  Status Validate() const;

  /// True if `tree` conforms: it has a root, the root carries the declared
  /// root label (if any), and ConformsBelow(tree, root). When false and
  /// `why` is non-null, a human-readable reason is stored.
  bool Conforms(const Tree& tree, std::string* why = nullptr) const;

  /// The child constraints alone, over the subtree rooted at `node`: every
  /// node's children are allowed under it and its required children are
  /// present. No root-label restriction, so it also checks a fragment such
  /// as an insert's content (a grafted copy gets exactly its children).
  bool ConformsBelow(const Tree& tree, NodeId node,
                     std::string* why = nullptr) const;

  /// Per-edge query (lint's dtd-violation pass asks it for the attach
  /// edge): true unless `parent` is sealed and `child` is outside its
  /// allow-list.
  bool ChildAllowed(Label parent, Label child) const;

  /// Child labels every `parent`-labeled node must have (empty set when
  /// unconstrained).
  const std::set<Label>& RequiredChildren(Label parent) const;

  /// True if `parent` has a closed child allow-list (Seal/Allow called).
  /// Unsealed labels accept any children — the type-summary layer widens
  /// their child footprint to ⊤.
  bool IsSealed(Label parent) const { return sealed_.count(parent) > 0; }

  /// The allow-list of a sealed parent (empty set for a sealed leaf or an
  /// unsealed label — check IsSealed to distinguish).
  const std::set<Label>& AllowedChildren(Label parent) const;

  /// The root-label restriction, when one was declared.
  const std::optional<Label>& root_label() const { return root_label_; }

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// Every label mentioned by the schema (root, parents, allowed and
  /// required children); used to build search alphabets for DTD-restricted
  /// witness searches.
  std::set<Label> MentionedLabels() const;

 private:
  std::shared_ptr<SymbolTable> symbols_;
  std::optional<Label> root_label_;
  std::set<Label> sealed_;
  std::map<Label, std::set<Label>> allowed_;
  std::map<Label, std::set<Label>> required_;
};

}  // namespace xmlup

#endif  // XMLUP_DTD_DTD_H_
