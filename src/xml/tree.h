#ifndef XMLUP_XML_TREE_H_
#define XMLUP_XML_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "xml/symbol_table.h"

namespace xmlup {

/// Identifies a node within one Tree. NodeIds are stable for the lifetime of
/// the tree: mutation never renumbers live nodes, which is what makes the
/// paper's reference-based (node identity) conflict semantics directly
/// expressible — "the same node" before and after an update is the same
/// NodeId.
using NodeId = uint32_t;

inline constexpr NodeId kNullNode = 0xFFFFFFFFu;

/// An unordered, unranked labeled tree over Σ (paper §2.1), stored as an
/// arena of nodes with first-child / next-sibling links.
///
/// Mutation model:
///  - AddChild / GraftCopy create nodes in fresh slots (insertion).
///  - DeleteSubtree unlinks a subtree and tombstones its slots (deletion).
///    Tombstoned ids are never reused, so a NodeId observed before a
///    mutation still denotes the same (possibly dead) node afterwards.
///
/// Id order: a parent's id is smaller than its children's. Every node is
/// created in a fresh slot under an existing live parent (CreateRoot,
/// AddChild, GraftCopy) and nothing re-links a node, so one pass over the
/// slots in descending id order sees every child before its parent, and in
/// ascending order every parent before its children. Validate checks it.
/// The evaluator does not rely on it: it walks the links down from its
/// anchor, and grafts under early nodes interleave subtrees in id order.
///
/// Although the data model is unordered, child lists have a deterministic
/// stored order so that traversals, serialization and tests are
/// reproducible. No algorithm in the library depends on that order.
class Tree {
 public:
  explicit Tree(std::shared_ptr<SymbolTable> symbols);

  /// Trees are heavyweight, identity-carrying objects: move-only.
  /// Use CopyTree() in tree_algos.h for explicit deep copies.
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;
  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// Creates the root node. Must be called exactly once, before any other
  /// mutation.
  NodeId CreateRoot(Label label);

  /// True once CreateRoot has been called.
  bool has_root() const { return root_ != kNullNode; }

  NodeId root() const {
    XMLUP_DCHECK(root_ != kNullNode);
    return root_;
  }

  /// Appends a new node labeled `label` as a child of `parent`.
  NodeId AddChild(NodeId parent, Label label);

  /// Inserts a deep copy of the subtree of `source` rooted at `source_node`
  /// as a new child of `parent`. Returns the id of the copy's root. The
  /// fresh copy's nodes are disjoint from all existing nodes, matching the
  /// paper's INSERT semantics ("a fresh copy of X"). The copy's ids are
  /// consecutive in pre-order. It walks the links, so it needs no stack at
  /// any depth and allocates only the arena's new slots. `parent` must not
  /// lie in the copied subtree.
  NodeId GraftCopy(NodeId parent, const Tree& source, NodeId source_node);

  /// Unlinks the subtree rooted at `node` and tombstones all its nodes,
  /// walking the links with no stack at any depth. `node` must not be the
  /// root (the paper requires deletion results to be trees; DELETE patterns
  /// enforce O(p) != ROOT(p)).
  void DeleteSubtree(NodeId node);

  /// --- Node accessors (valid for live and tombstoned ids) ---
  Label label(NodeId n) const { return node(n).label; }
  bool alive(NodeId n) const { return node(n).alive; }

  /// --- Structure accessors (meaningful for live nodes) ---
  NodeId parent(NodeId n) const { return node(n).parent; }
  NodeId first_child(NodeId n) const { return node(n).first_child; }
  NodeId next_sibling(NodeId n) const { return node(n).next_sibling; }

  /// Number of live nodes (|t| in the paper).
  size_t size() const { return live_count_; }

  /// Total slots ever allocated (live + tombstoned); NodeIds are < capacity.
  size_t capacity() const { return nodes_.size(); }

  /// Monotonic counter bumped by every mutation; used by snapshots to
  /// detect staleness.
  uint64_t version() const { return version_; }

  /// Children of `n`, in stored order.
  std::vector<NodeId> Children(NodeId n) const;

  /// Number of children of `n`.
  size_t ChildCount(NodeId n) const;

  /// True if `a` is a proper ancestor of `b` (CHILD+ in the paper's DESC).
  bool IsProperAncestor(NodeId a, NodeId b) const;

  /// Depth of `n` (root has depth 0).
  size_t Depth(NodeId n) const;

  /// Live nodes of the subtree rooted at `n` (SUBTREE_n in the paper),
  /// in preorder.
  std::vector<NodeId> SubtreeNodes(NodeId n) const;

  /// All live nodes in preorder / postorder from the root.
  std::vector<NodeId> PreOrder() const;
  std::vector<NodeId> PostOrder() const;

  /// Label name lookup convenience.
  const std::string& LabelName(NodeId n) const {
    return symbols_->Name(label(n));
  }

  /// Verifies structural invariants (link symmetry, acyclicity, live
  /// counts, id order). Used by tests and after complex mutations in debug
  /// builds.
  Status Validate() const;

 private:
  struct Node {
    Label label = kInvalidLabel;
    NodeId parent = kNullNode;
    NodeId first_child = kNullNode;
    NodeId last_child = kNullNode;
    NodeId next_sibling = kNullNode;
    NodeId prev_sibling = kNullNode;
    bool alive = false;
  };

  const Node& node(NodeId n) const {
    XMLUP_DCHECK(n < nodes_.size()) << "node id out of range";
    return nodes_[n];
  }
  Node& node(NodeId n) {
    XMLUP_DCHECK(n < nodes_.size()) << "node id out of range";
    return nodes_[n];
  }

  NodeId AllocNode(Label label, NodeId parent);
  void LinkChild(NodeId parent, NodeId child);

  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Node> nodes_;
  NodeId root_ = kNullNode;
  size_t live_count_ = 0;
  uint64_t version_ = 0;
};

}  // namespace xmlup

#endif  // XMLUP_XML_TREE_H_
