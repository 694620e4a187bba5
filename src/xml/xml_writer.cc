#include "xml/xml_writer.h"

#include <string>
#include <utility>
#include <vector>

namespace xmlup {
namespace {

/// Writes the subtree at `root` with an explicit stack of open elements,
/// each with its next child to write, so depth is bounded by memory rather
/// than by the call stack.
void WriteNode(const Tree& tree, NodeId root, const XmlWriteOptions& options,
               std::string* out) {
  // One tag of `node` at `depth`, on a line of its own when indenting.
  const auto tag = [&](NodeId node, size_t depth, const char* open,
                       const char* close) {
    if (options.indent > 0) {
      out->append(depth * static_cast<size_t>(options.indent), ' ');
    }
    out->append(open);
    out->append(tree.LabelName(node));
    out->append(close);
    if (options.indent > 0) out->push_back('\n');
  };
  std::vector<std::pair<NodeId, NodeId>> open;  // element, next child
  for (NodeId start = root;;) {
    if (start != kNullNode) {
      const NodeId first = tree.first_child(start);
      tag(start, open.size(), "<", first == kNullNode ? "/>" : ">");
      if (first != kNullNode) open.emplace_back(start, first);
    }
    if (open.empty()) return;
    auto& [element, next] = open.back();
    start = next;
    if (next != kNullNode) {
      next = tree.next_sibling(next);
      continue;
    }
    tag(element, open.size() - 1, "</", ">");
    open.pop_back();
  }
}

}  // namespace

std::string WriteXml(const Tree& tree, NodeId node,
                     const XmlWriteOptions& options) {
  std::string out;
  WriteNode(tree, node, options, &out);
  return out;
}

std::string WriteXml(const Tree& tree, const XmlWriteOptions& options) {
  if (!tree.has_root()) return "";
  return WriteXml(tree, tree.root(), options);
}

}  // namespace xmlup
