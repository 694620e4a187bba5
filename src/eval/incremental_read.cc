#include "eval/incremental_read.h"

#include <algorithm>

namespace xmlup {

Result<IncrementalRead> IncrementalRead::Make(Pattern linear,
                                              const Tree* tree) {
  if (!linear.IsLinear()) {
    return Status::InvalidArgument(
        "incremental reads require a linear pattern");
  }
  if (linear.size() > 63) {
    return Status::InvalidArgument(
        "incremental reads support patterns up to 63 nodes");
  }
  XMLUP_CHECK(tree != nullptr);
  IncrementalRead read(std::move(linear), tree);
  read.Rebuild();
  return read;
}

IncrementalRead::IncrementalRead(Pattern pattern, const Tree* tree)
    : pattern_(std::move(pattern)), tree_(tree) {
  m_ = pattern_.size();
  for (PatternNodeId n = pattern_.root(); n != kNullPatternNode;
       n = pattern_.first_child(n)) {
    flat_.push_back(n);
  }
  XMLUP_CHECK(flat_.size() == m_);
}

bool IncrementalRead::LabelOk(PatternNodeId q, NodeId n) const {
  return pattern_.is_wildcard(q) || pattern_.label(q) == tree_->label(n);
}

void IncrementalRead::EnsureCapacity() {
  if (s_mask_.size() < tree_->capacity()) {
    s_mask_.resize(tree_->capacity(), 0);
    g_mask_.resize(tree_->capacity(), 0);
  }
}

void IncrementalRead::VisitNode(NodeId node, uint64_t parent_s,
                                uint64_t parent_g) {
  // Bit i of a mask = "a prefix of i pattern nodes is matched".
  uint64_t s = 0;
  if (node == tree_->root()) {
    if (LabelOk(flat_[0], node)) s |= uint64_t{1} << 1;
  } else {
    // Try to match pattern node i (consuming prefix i -> i+1) at `node`.
    for (size_t i = 1; i < m_; ++i) {
      const uint64_t bit = uint64_t{1} << i;
      const bool reachable = pattern_.axis(flat_[i]) == Axis::kChild
                                 ? (parent_s & bit) != 0
                                 : (parent_g & bit) != 0;
      if (reachable && LabelOk(flat_[i], node)) {
        s |= uint64_t{1} << (i + 1);
      }
    }
  }
  s_mask_[node] = s;
  g_mask_[node] = s | (node == tree_->root() ? 0 : parent_g);
  if ((s & (uint64_t{1} << m_)) != 0) results_.push_back(node);
}

void IncrementalRead::VisitSubtree(NodeId root, uint64_t parent_s,
                                   uint64_t parent_g) {
  EnsureCapacity();
  std::vector<NodeId> stack = {root};
  VisitNode(root, parent_s, parent_g);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (NodeId c = tree_->first_child(n); c != kNullNode;
         c = tree_->next_sibling(c)) {
      VisitNode(c, s_mask_[n], g_mask_[n]);
      stack.push_back(c);
    }
  }
}

void IncrementalRead::Rebuild() {
  results_.clear();
  s_mask_.assign(tree_->capacity(), 0);
  g_mask_.assign(tree_->capacity(), 0);
  if (tree_->has_root() && tree_->size() > 0) {
    VisitSubtree(tree_->root(), 0, 0);
  }
  std::sort(results_.begin(), results_.end());
  needs_prune_ = false;
}

const std::vector<NodeId>& IncrementalRead::Results() {
  if (needs_prune_) {
    results_.erase(std::remove_if(results_.begin(), results_.end(),
                                  [&](NodeId n) { return !tree_->alive(n); }),
                   results_.end());
    needs_prune_ = false;
  }
  return results_;
}

void IncrementalRead::OnInsert(const std::vector<NodeId>& points,
                               const std::vector<NodeId>& copy_roots) {
  EnsureCapacity();
  for (size_t i = 0; i < copy_roots.size(); ++i) {
    const NodeId point = points[i];
    const NodeId copy = copy_roots[i];
    if (!tree_->alive(copy)) continue;
    // Existing nodes' root paths are unchanged by insertion (linear
    // patterns have no predicates), so only the fresh copy needs states.
    VisitSubtree(copy, s_mask_[point], g_mask_[point]);
  }
  std::sort(results_.begin(), results_.end());
}

void IncrementalRead::OnDelete() { needs_prune_ = true; }

}  // namespace xmlup
