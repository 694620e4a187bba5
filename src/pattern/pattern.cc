#include "pattern/pattern.h"

#include <algorithm>
#include <set>

namespace xmlup {

Pattern::Pattern(std::shared_ptr<SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  XMLUP_CHECK(symbols_ != nullptr);
}

PatternNodeId Pattern::CreateRoot(Label label) {
  XMLUP_CHECK(nodes_.empty());
  Node n;
  n.label = label;
  nodes_.push_back(n);
  output_ = 0;
  return 0;
}

PatternNodeId Pattern::AddChild(PatternNodeId parent, Label label, Axis axis) {
  XMLUP_DCHECK(parent < nodes_.size());
  Node n;
  n.label = label;
  n.axis = axis;
  n.parent = parent;
  nodes_.push_back(n);
  const PatternNodeId id = static_cast<PatternNodeId>(nodes_.size() - 1);
  Node& p = node(parent);
  if (p.last_child != kNullPatternNode) {
    node(p.last_child).next_sibling = id;
  } else {
    p.first_child = id;
  }
  p.last_child = id;
  return id;
}

void Pattern::SetOutput(PatternNodeId n) {
  XMLUP_DCHECK(n < nodes_.size());
  output_ = n;
}

std::vector<PatternNodeId> Pattern::Children(PatternNodeId n) const {
  std::vector<PatternNodeId> out;
  for (PatternNodeId c = first_child(n); c != kNullPatternNode;
       c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

size_t Pattern::ChildCount(PatternNodeId n) const {
  size_t count = 0;
  for (PatternNodeId c = first_child(n); c != kNullPatternNode;
       c = next_sibling(c)) {
    ++count;
  }
  return count;
}

std::vector<PatternNodeId> Pattern::PreOrder() const {
  if (!has_root()) return {};
  std::vector<PatternNodeId> out;
  std::vector<PatternNodeId> stack = {root()};
  while (!stack.empty()) {
    const PatternNodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    // Push children in reverse so preorder visits them in stored order.
    std::vector<PatternNodeId> children = Children(n);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

std::vector<PatternNodeId> Pattern::PostOrder() const {
  std::vector<PatternNodeId> out = PreOrder();
  std::reverse(out.begin(), out.end());
  return out;
}

const std::string& Pattern::LabelName(PatternNodeId n) const {
  static const std::string* const kWildcardName = new std::string("*");
  if (is_wildcard(n)) return *kWildcardName;
  return symbols_->Name(label(n));
}

bool Pattern::IsLinear() const {
  if (!has_root()) return false;
  for (PatternNodeId n = 0; n < nodes_.size(); ++n) {
    if (ChildCount(n) > 1) return false;
  }
  // With at most one child per node the pattern is a single path, whose
  // unique leaf is the only childless node; linearity additionally requires
  // the output to be that leaf.
  return first_child(output_) == kNullPatternNode;
}

size_t Pattern::Depth(PatternNodeId n) const {
  size_t depth = 0;
  for (PatternNodeId p = parent(n); p != kNullPatternNode; p = parent(p)) {
    ++depth;
  }
  return depth;
}

bool Pattern::IsAncestorOrSelf(PatternNodeId a, PatternNodeId b) const {
  for (PatternNodeId n = b; n != kNullPatternNode; n = parent(n)) {
    if (n == a) return true;
  }
  return false;
}

std::vector<Label> Pattern::DistinctLabels() const {
  std::set<Label> labels;
  for (PatternNodeId n = 0; n < nodes_.size(); ++n) {
    if (!is_wildcard(n)) labels.insert(label(n));
  }
  return std::vector<Label>(labels.begin(), labels.end());
}

Status Pattern::Validate() const {
  if (!has_root()) return Status::Internal("pattern has no root");
  if (output_ >= nodes_.size()) {
    return Status::Internal("output node out of range");
  }
  if (node(0).parent != kNullPatternNode) {
    return Status::Internal("root has a parent");
  }
  size_t reachable = 0;
  std::vector<PatternNodeId> stack = {root()};
  std::vector<bool> visited(nodes_.size(), false);
  while (!stack.empty()) {
    const PatternNodeId n = stack.back();
    stack.pop_back();
    if (visited[n]) return Status::Internal("cycle in pattern");
    visited[n] = true;
    ++reachable;
    for (PatternNodeId c = first_child(n); c != kNullPatternNode;
         c = next_sibling(c)) {
      if (parent(c) != n) return Status::Internal("child/parent mismatch");
      stack.push_back(c);
    }
  }
  if (reachable != nodes_.size()) {
    return Status::Internal("unreachable pattern nodes");
  }
  return Status::OK();
}

}  // namespace xmlup
