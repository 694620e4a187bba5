#ifndef XMLUP_PATTERN_PATTERN_H_
#define XMLUP_PATTERN_PATTERN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "xml/symbol_table.h"

namespace xmlup {

/// Identifies a node within one Pattern.
using PatternNodeId = uint32_t;

inline constexpr PatternNodeId kNullPatternNode = 0xFFFFFFFFu;

/// The wildcard label `*` (paper §2.2: * ∉ Σ matches any label).
inline constexpr Label kWildcardLabel = 0xFFFFFFFEu;

/// Edge kinds of a tree pattern: EDGES_/(p) (child constraints) and
/// EDGES_//(p) (descendant constraints).
enum class Axis : uint8_t {
  kChild = 0,
  kDescendant = 1,
};

/// A tree pattern p over Σ ∪ {*} (paper §2.2): a tree whose edges are
/// partitioned into child and descendant constraints, with one
/// distinguished output node O(p).
///
/// Patterns in P^{//,[],*} are arbitrary such trees; *linear* patterns
/// (P^{//,*}) have exactly one outgoing edge per node and the output node is
/// the leaf. Patterns are value types (copyable); they are immutable once
/// built except through the construction API.
class Pattern {
 public:
  explicit Pattern(std::shared_ptr<SymbolTable> symbols);

  Pattern(const Pattern&) = default;
  Pattern& operator=(const Pattern&) = default;
  Pattern(Pattern&&) = default;
  Pattern& operator=(Pattern&&) = default;

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// --- Construction ---
  /// Creates the pattern root. `label` may be kWildcardLabel. The root
  /// starts out as the output node.
  PatternNodeId CreateRoot(Label label);

  /// Adds a node connected to `parent` by an edge of kind `axis`.
  PatternNodeId AddChild(PatternNodeId parent, Label label, Axis axis);

  /// Marks `node` as the output node O(p).
  void SetOutput(PatternNodeId node);

  /// --- Accessors ---
  bool has_root() const { return !nodes_.empty(); }
  PatternNodeId root() const {
    XMLUP_DCHECK(has_root());
    return 0;
  }
  PatternNodeId output() const { return output_; }

  /// |p|: number of pattern nodes.
  size_t size() const { return nodes_.size(); }

  Label label(PatternNodeId n) const { return node(n).label; }
  bool is_wildcard(PatternNodeId n) const {
    return node(n).label == kWildcardLabel;
  }
  /// Edge kind of the edge from parent(n) to n. Meaningless for the root.
  Axis axis(PatternNodeId n) const { return node(n).axis; }
  PatternNodeId parent(PatternNodeId n) const { return node(n).parent; }
  PatternNodeId first_child(PatternNodeId n) const {
    return node(n).first_child;
  }
  PatternNodeId next_sibling(PatternNodeId n) const {
    return node(n).next_sibling;
  }

  std::vector<PatternNodeId> Children(PatternNodeId n) const;
  size_t ChildCount(PatternNodeId n) const;

  /// All nodes in preorder (root first). Node ids are dense; preorder is
  /// simply by construction order of this implementation, but callers
  /// should not rely on that.
  std::vector<PatternNodeId> PreOrder() const;
  std::vector<PatternNodeId> PostOrder() const;

  /// Label name for diagnostics ("*" for wildcards). The reference stays
  /// valid for the SymbolTable's lifetime.
  const std::string& LabelName(PatternNodeId n) const;

  /// True if every node has at most one child and the output node is the
  /// unique leaf (the paper's P^{//,*}).
  bool IsLinear() const;

  /// True if `a` equals `b` or `a` is an ancestor of `b`.
  bool IsAncestorOrSelf(PatternNodeId a, PatternNodeId b) const;

  /// Depth of `n` (root has depth 0).
  size_t Depth(PatternNodeId n) const;

  /// The labels (≠ *) used in this pattern — Σ_p.
  std::vector<Label> DistinctLabels() const;

  /// Structural invariants; used by tests.
  Status Validate() const;

 private:
  struct Node {
    Label label = kInvalidLabel;
    Axis axis = Axis::kChild;  // edge kind from parent
    PatternNodeId parent = kNullPatternNode;
    PatternNodeId first_child = kNullPatternNode;
    PatternNodeId last_child = kNullPatternNode;
    PatternNodeId next_sibling = kNullPatternNode;
  };

  const Node& node(PatternNodeId n) const {
    XMLUP_DCHECK(n < nodes_.size());
    return nodes_[n];
  }
  Node& node(PatternNodeId n) {
    XMLUP_DCHECK(n < nodes_.size());
    return nodes_[n];
  }

  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Node> nodes_;
  PatternNodeId output_ = kNullPatternNode;
};

}  // namespace xmlup

#endif  // XMLUP_PATTERN_PATTERN_H_
