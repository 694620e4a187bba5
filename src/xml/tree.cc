#include "xml/tree.h"

#include <functional>

namespace xmlup {

Tree::Tree(std::shared_ptr<SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  XMLUP_CHECK(symbols_ != nullptr);
}

NodeId Tree::CreateRoot(Label label) {
  XMLUP_CHECK(root_ == kNullNode);
  root_ = AllocNode(label, kNullNode);
  ++version_;
  return root_;
}

NodeId Tree::AllocNode(Label label, NodeId parent) {
  Node n;
  n.label = label;
  n.parent = parent;
  n.alive = true;
  nodes_.push_back(n);
  ++live_count_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Tree::LinkChild(NodeId parent, NodeId child) {
  // Append at the tail of the child list: O(1) and keeps document order.
  Node& p = node(parent);
  Node& c = node(child);
  c.prev_sibling = p.last_child;
  c.next_sibling = kNullNode;
  if (p.last_child != kNullNode) {
    node(p.last_child).next_sibling = child;
  } else {
    p.first_child = child;
  }
  p.last_child = child;
  c.parent = parent;
}

NodeId Tree::AddChild(NodeId parent, Label label) {
  XMLUP_DCHECK(alive(parent)) << "AddChild on dead node";
  const NodeId child = AllocNode(label, parent);
  LinkChild(parent, child);
  ++version_;
  return child;
}

NodeId Tree::GraftCopy(NodeId parent, const Tree& source, NodeId source_node) {
  XMLUP_DCHECK(alive(parent));
  XMLUP_DCHECK(source.alive(source_node));
  // A pre-order walk over the source in lockstep with the copy, by the
  // parent and sibling links: iterative at any depth and with no stack, so
  // it allocates nothing but the copy's slots. Each copy node is created
  // on its first visit, so ids come out in pre-order, parents first.
  const NodeId copy_root = AddChild(parent, source.label(source_node));
  NodeId src = source_node;
  NodeId dst = copy_root;
  while (true) {
    const NodeId down = source.first_child(src);
    if (down != kNullNode) {
      src = down;
      dst = AddChild(dst, source.label(src));
      continue;
    }
    while (src != source_node && source.next_sibling(src) == kNullNode) {
      src = source.parent(src);
      dst = node(dst).parent;
    }
    if (src == source_node) break;
    src = source.next_sibling(src);
    dst = AddChild(node(dst).parent, source.label(src));
  }
  ++version_;
  return copy_root;
}

void Tree::DeleteSubtree(NodeId target) {
  XMLUP_DCHECK(alive(target)) << "DeleteSubtree on dead node";
  XMLUP_CHECK(target != root_);
  // Unlink from the sibling list.
  Node& t = node(target);
  if (t.prev_sibling != kNullNode) {
    node(t.prev_sibling).next_sibling = t.next_sibling;
  } else {
    node(t.parent).first_child = t.next_sibling;
  }
  if (t.next_sibling != kNullNode) {
    node(t.next_sibling).prev_sibling = t.prev_sibling;
  } else {
    node(t.parent).last_child = t.prev_sibling;
  }
  t.next_sibling = kNullNode;
  t.prev_sibling = kNullNode;
  // Tombstone the whole subtree in pre-order by the links, climbing back
  // up no further than the target (whose sibling links are cut above):
  // iterative at any depth, and no stack to allocate.
  NodeId n = target;
  while (true) {
    node(n).alive = false;
    --live_count_;
    if (first_child(n) != kNullNode) {
      n = first_child(n);
      continue;
    }
    while (n != target && next_sibling(n) == kNullNode) n = parent(n);
    if (n == target) break;
    n = next_sibling(n);
  }
  ++version_;
}

std::vector<NodeId> Tree::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

size_t Tree::ChildCount(NodeId n) const {
  size_t count = 0;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    ++count;
  }
  return count;
}

bool Tree::IsProperAncestor(NodeId a, NodeId b) const {
  for (NodeId n = parent(b); n != kNullNode; n = parent(n)) {
    if (n == a) return true;
  }
  return false;
}

size_t Tree::Depth(NodeId n) const {
  size_t depth = 0;
  for (NodeId p = parent(n); p != kNullNode; p = parent(p)) ++depth;
  return depth;
}

std::vector<NodeId> Tree::SubtreeNodes(NodeId n) const {
  XMLUP_DCHECK(alive(n));
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {n};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (NodeId c = first_child(cur); c != kNullNode; c = next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return out;
}

std::vector<NodeId> Tree::PreOrder() const {
  if (root_ == kNullNode) return {};
  return SubtreeNodes(root_);
}

std::vector<NodeId> Tree::PostOrder() const {
  if (root_ == kNullNode) return {};
  // Two-stack postorder.
  std::vector<NodeId> stack = {root_};
  std::vector<NodeId> out;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
      stack.push_back(c);
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

Status Tree::Validate() const {
  if (root_ == kNullNode) {
    return live_count_ == 0
               ? Status::OK()
               : Status::Internal("live nodes without a root");
  }
  if (!alive(root_)) return Status::Internal("root is dead");
  if (parent(root_) != kNullNode) return Status::Internal("root has parent");
  size_t seen = 0;
  std::vector<NodeId> stack = {root_};
  std::vector<bool> visited(nodes_.size(), false);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (visited[n]) return Status::Internal("cycle or shared node detected");
    visited[n] = true;
    if (!alive(n)) return Status::Internal("dead node reachable from root");
    ++seen;
    NodeId prev = kNullNode;
    for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
      if (parent(c) != n) return Status::Internal("child/parent mismatch");
      if (c <= n) return Status::Internal("child id not above its parent's");
      if (node(c).prev_sibling != prev) {
        return Status::Internal("sibling links inconsistent");
      }
      prev = c;
      stack.push_back(c);
    }
    if (node(n).last_child != prev) {
      return Status::Internal("last_child link inconsistent");
    }
  }
  if (seen != live_count_) {
    return Status::Internal("live_count does not match reachable nodes");
  }
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].alive && !visited[n]) {
      return Status::Internal("live node unreachable from root");
    }
  }
  return Status::OK();
}

}  // namespace xmlup
