#include "xml/isomorphism.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

namespace xmlup {
namespace {

/// CanonicalCode's scratch, one per thread and reused across calls like
/// the evaluator's: a warm thread allocates nothing per call but the
/// returned code. Nothing CanonicalCode calls uses it.
struct CodeScratch {
  /// The finished codes not yet consumed by their parent, as a stack in
  /// one buffer: entry i spans [starts[i], starts[i + 1]), the top entry
  /// runs to the end of the buffer.
  std::string codes;
  std::vector<size_t> starts;
  /// A node's child entries as (offset, length), for sorting.
  std::vector<std::pair<size_t, size_t>> children;
  /// Where unsorted child codes wait while their parent's code is
  /// written over them.
  std::string moved;
  /// Per label, its resolved name and the call that resolved it: a name
  /// is looked up (under the SymbolTable's mutex) once per distinct label
  /// and call.
  std::vector<std::pair<uint64_t, const std::string*>> names;
  uint64_t call = 0;

  static CodeScratch& Get() {
    thread_local CodeScratch scratch;
    return scratch;
  }

  const std::string& Name(const Tree& tree, Label label) {
    if (names.size() <= label) names.resize(size_t{label} + 1, {0, nullptr});
    std::pair<uint64_t, const std::string*>& entry = names[label];
    if (entry.first != call) entry = {call, &tree.symbols()->Name(label)};
    return *entry.second;
  }
};

/// Replaces the top `k` entries of the code stack, the codes of `n`'s
/// children, with `n`'s code: "(" name, the children's codes in sorted
/// order, ")".
void PushCode(const Tree& tree, NodeId n, size_t k, CodeScratch& s) {
  const std::string& name = s.Name(tree, tree.label(n));
  std::string& codes = s.codes;
  if (k == 0) {
    s.starts.push_back(codes.size());
    codes += '(';
    codes += name;
    codes += ')';
    return;
  }
  const size_t first = s.starts.size() - k;
  const size_t base = s.starts[first];
  s.children.clear();
  for (size_t i = first; i < s.starts.size(); ++i) {
    const size_t end =
        i + 1 < s.starts.size() ? s.starts[i + 1] : codes.size();
    s.children.emplace_back(s.starts[i], end - s.starts[i]);
  }
  const auto code_less = [&codes](const std::pair<size_t, size_t>& a,
                                  const std::pair<size_t, size_t>& b) {
    return std::string_view(codes).substr(a.first, a.second) <
           std::string_view(codes).substr(b.first, b.second);
  };
  if (std::is_sorted(s.children.begin(), s.children.end(), code_less)) {
    // The children are in order where they lie: open the node in front
    // of them.
    codes.insert(base, name.size() + 1, '(');
    codes.replace(base + 1, name.size(), name);
  } else {
    std::sort(s.children.begin(), s.children.end(), code_less);
    s.moved.assign(codes, base);
    codes.resize(base);
    codes += '(';
    codes += name;
    for (const auto& [offset, length] : s.children) {
      codes.append(s.moved, offset - base, length);
    }
  }
  codes += ')';
  s.starts.resize(first + 1);
}

/// Codes bottom-up in one post-order walk of the links, without recursion
/// (inputs may be deep chains): when a node is reached, its children's
/// codes are the top entries of the stack. Codes use label *names* so that
/// trees over different SymbolTables compare correctly.
std::string CodeOf(const Tree& tree, NodeId root) {
  CodeScratch& s = CodeScratch::Get();
  ++s.call;
  s.codes.clear();
  s.starts.clear();
  const auto leftmost_leaf = [&tree](NodeId n) {
    while (tree.first_child(n) != kNullNode) n = tree.first_child(n);
    return n;
  };
  NodeId n = leftmost_leaf(root);
  for (;;) {
    size_t k = 0;
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      ++k;
    }
    PushCode(tree, n, k, s);
    if (n == root) break;
    const NodeId sibling = tree.next_sibling(n);
    n = sibling != kNullNode ? leftmost_leaf(sibling) : tree.parent(n);
  }
  // An exact copy: the buffer's spare capacity stays with the scratch.
  return std::string(s.codes);
}

}  // namespace

std::string CanonicalCode(const Tree& tree, NodeId node) {
  XMLUP_DCHECK(tree.alive(node));
  return CodeOf(tree, node);
}

std::string CanonicalCode(const Tree& tree) {
  if (!tree.has_root()) return "";
  return CanonicalCode(tree, tree.root());
}

bool Isomorphic(const Tree& t1, NodeId n1, const Tree& t2, NodeId n2) {
  return CanonicalCode(t1, n1) == CanonicalCode(t2, n2);
}

bool SetsIsomorphic(const Tree& t1, const std::vector<NodeId>& roots1,
                    const Tree& t2, const std::vector<NodeId>& roots2) {
  std::set<std::string> codes1;
  std::set<std::string> codes2;
  for (NodeId n : roots1) codes1.insert(CanonicalCode(t1, n));
  for (NodeId n : roots2) codes2.insert(CanonicalCode(t2, n));
  return codes1 == codes2;
}

bool MultisetsIsomorphic(const Tree& t1, const std::vector<NodeId>& roots1,
                         const Tree& t2, const std::vector<NodeId>& roots2) {
  std::vector<std::string> codes1;
  std::vector<std::string> codes2;
  for (NodeId n : roots1) codes1.push_back(CanonicalCode(t1, n));
  for (NodeId n : roots2) codes2.push_back(CanonicalCode(t2, n));
  std::sort(codes1.begin(), codes1.end());
  std::sort(codes2.begin(), codes2.end());
  return codes1 == codes2;
}

}  // namespace xmlup
