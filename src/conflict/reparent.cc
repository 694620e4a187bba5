#include "conflict/reparent.h"

#include <algorithm>
#include <set>
#include <vector>

#include "conflict/update_op.h"
#include "eval/embedding_enumerator.h"
#include "eval/evaluator.h"
#include "pattern/pattern_ops.h"
#include "xml/tree_algos.h"

namespace xmlup {
namespace {

/// Copies `src` into a fresh tree while (a) skipping the edge into `v` at
/// its original position and (b) grafting `v`'s subtree under `u` behind a
/// chain of k+1 alpha nodes.
struct ReparentCopier {
  const Tree& src;
  NodeId u;
  NodeId v;
  size_t k;
  Label alpha;
  Tree out;
  std::unordered_map<NodeId, NodeId> mapping;

  ReparentCopier(const Tree& src_in, NodeId u_in, NodeId v_in, size_t k_in,
                 Label alpha_in)
      : src(src_in), u(u_in), v(v_in), k(k_in), alpha(alpha_in),
        out(src_in.symbols()) {}

  void CopyChildren(NodeId src_node, NodeId dst_node) {
    for (NodeId c = src.first_child(src_node); c != kNullNode;
         c = src.next_sibling(c)) {
      if (c == v) continue;  // detached; re-attached under u
      const NodeId dst_child = out.AddChild(dst_node, src.label(c));
      mapping[c] = dst_child;
      CopyChildren(c, dst_child);
    }
    if (src_node == u) {
      // Attach the alpha chain and v's subtree.
      NodeId chain = dst_node;
      for (size_t i = 0; i < k + 1; ++i) chain = out.AddChild(chain, alpha);
      const NodeId dst_v = out.AddChild(chain, src.label(v));
      mapping[v] = dst_v;
      CopyChildren(v, dst_v);
    }
  }

  ReparentResult Run() {
    const NodeId root = out.CreateRoot(src.label(src.root()));
    mapping[src.root()] = root;
    CopyChildren(src.root(), root);
    return {std::move(out), std::move(mapping)};
  }
};

/// Number of nodes on the u..v path, inclusive.
size_t PathNodeCount(const Tree& t, NodeId u, NodeId v) {
  size_t count = 1;
  for (NodeId n = v; n != u; n = t.parent(n)) ++count;
  return count;
}

/// Nearest marked proper ancestor of `v` (kNullNode if none).
NodeId NearestMarkedAncestor(const Tree& t, const std::set<NodeId>& marks,
                             NodeId v) {
  for (NodeId n = t.parent(v); n != kNullNode; n = t.parent(n)) {
    if (marks.count(n) > 0) return n;
  }
  return kNullNode;
}

/// Iteratively reparents long unmarked stretches between marked nodes,
/// then prunes subtrees containing no marked node. Returns the shrunken
/// tree. `marks` must include the root.
Tree ShrinkMarked(Tree t, std::set<NodeId> marks, size_t k, Label alpha) {
  // --- Reparent until every marked node is within k+3 of its nearest
  // marked ancestor. ---
  for (;;) {
    NodeId found_v = kNullNode;
    NodeId found_u = kNullNode;
    for (NodeId v : marks) {
      if (v == t.root()) continue;
      const NodeId u = NearestMarkedAncestor(t, marks, v);
      XMLUP_DCHECK(u != kNullNode) << "root must be marked";
      if (PathNodeCount(t, u, v) > k + 3) {
        found_v = v;
        found_u = u;
        break;
      }
    }
    if (found_v == kNullNode) break;
    ReparentResult reparented = Reparent(t, found_u, found_v, k, alpha);
    std::set<NodeId> new_marks;
    for (NodeId m : marks) {
      auto it = reparented.mapping.find(m);
      if (it != reparented.mapping.end()) new_marks.insert(it->second);
    }
    t = std::move(reparented.tree);
    marks = std::move(new_marks);
  }

  // --- Prune: delete every maximal subtree without a marked node. The
  // alpha chains introduced by reparenting lie on paths between marked
  // nodes and survive (their subtrees contain marked nodes). ---
  // Compute keep = marked ∪ ancestors of marked.
  std::set<NodeId> keep;
  for (NodeId m : marks) {
    for (NodeId n = m; n != kNullNode; n = t.parent(n)) {
      if (!keep.insert(n).second) break;
    }
  }
  std::vector<NodeId> to_delete;
  for (NodeId n : t.PreOrder()) {
    if (keep.count(n) == 0 && keep.count(t.parent(n)) > 0) {
      to_delete.push_back(n);
    }
  }
  for (NodeId n : to_delete) {
    if (t.alive(n)) t.DeleteSubtree(n);
  }
  return t;
}

}  // namespace

ReparentResult Reparent(const Tree& t, NodeId u, NodeId v, size_t k,
                        Label alpha) {
  XMLUP_CHECK(t.IsProperAncestor(u, v));
  XMLUP_DCHECK(PathNodeCount(t, u, v) > k + 3)
      << "reparenting requires more than k+3 nodes on the u..v path";
  ReparentCopier copier(t, u, v, k, alpha);
  return copier.Run();
}

Result<Tree> ShrinkReadInsertWitness(const Pattern& read,
                                     const Pattern& insert_pattern,
                                     const Tree& inserted,
                                     const Tree& witness) {
  // Work on a copy; original node ids occupy [0, orig_capacity).
  Tree work = CopyTree(witness);
  const size_t orig_capacity = work.capacity();
  const std::vector<NodeId> before = Evaluate(read, work);
  InsertAt(&work, Evaluate(insert_pattern, work), inserted);
  const std::vector<NodeId> after = Evaluate(read, work);

  // Definition 9, step 1: a node in R(I(W)) \ R(W).
  NodeId n_witness = kNullNode;
  for (NodeId n : after) {
    if (!std::binary_search(before.begin(), before.end(), n)) {
      n_witness = n;
      break;
    }
  }
  if (n_witness == kNullNode) {
    return Status::InvalidArgument(
        "tree is not a witness to a read-insert node conflict");
  }

  // Step 2: choose an embedding selecting it and mark.
  const Embedding e_r = FindEmbeddingSelecting(read, work, n_witness);
  XMLUP_CHECK(!e_r.empty());
  std::set<NodeId> marks;
  Tree original = CopyTree(witness);  // unmutated view for e_I embeddings
  for (NodeId image : e_r) {
    if (image < orig_capacity) {
      marks.insert(image);
      continue;
    }
    // Inserted node: mark the nearest original ancestor (the insertion
    // point) and the image of an embedding of I selecting it.
    NodeId anchor = work.parent(image);
    while (anchor >= orig_capacity) anchor = work.parent(anchor);
    marks.insert(anchor);
    const Embedding e_i =
        FindEmbeddingSelecting(insert_pattern, original, anchor);
    XMLUP_CHECK_STREAM(!e_i.empty())
        << "insertion point must be selected by the insert pattern";
    for (NodeId m : e_i) marks.insert(m);
  }
  marks.insert(witness.root());

  const Label alpha = read.symbols()->Fresh("alpha");
  Tree shrunk = ShrinkMarked(CopyTree(witness), std::move(marks),
                             StarLength(read), alpha);
  if (!IsReadInsertWitness(read, insert_pattern, inserted, shrunk,
                           ConflictSemantics::kNode)) {
    return Status::Internal("shrunken read-insert witness failed verification");
  }
  return shrunk;
}

Result<Tree> ShrinkReadDeleteWitness(const Pattern& read,
                                     const Pattern& delete_pattern,
                                     const Tree& witness) {
  Tree work = CopyTree(witness);
  const std::vector<NodeId> before = Evaluate(read, work);
  const std::vector<NodeId> points = Evaluate(delete_pattern, work);
  DeleteAt(&work, points);
  const std::vector<NodeId> after = Evaluate(read, work);

  NodeId n_witness = kNullNode;
  for (NodeId n : before) {
    if (!std::binary_search(after.begin(), after.end(), n)) {
      n_witness = n;
      break;
    }
  }
  if (n_witness == kNullNode) {
    return Status::InvalidArgument(
        "tree is not a witness to a read-delete node conflict");
  }

  Tree original = CopyTree(witness);
  std::set<NodeId> marks;
  const Embedding e_r = FindEmbeddingSelecting(read, original, n_witness);
  XMLUP_CHECK(!e_r.empty());
  for (NodeId image : e_r) marks.insert(image);

  // The deletion point responsible: an ancestor-or-self of n_witness among
  // the evaluated points.
  NodeId u = kNullNode;
  for (NodeId p : points) {
    if (p == n_witness || original.IsProperAncestor(p, n_witness)) {
      u = p;
      break;
    }
  }
  XMLUP_CHECK(u != kNullNode);
  const Embedding e_d = FindEmbeddingSelecting(delete_pattern, original, u);
  XMLUP_CHECK(!e_d.empty());
  for (NodeId image : e_d) marks.insert(image);
  marks.insert(original.root());

  const Label alpha = read.symbols()->Fresh("alpha");
  Tree shrunk = ShrinkMarked(CopyTree(witness), std::move(marks),
                             StarLength(read), alpha);
  if (!IsReadDeleteWitness(read, delete_pattern, shrunk,
                           ConflictSemantics::kNode)) {
    return Status::Internal("shrunken read-delete witness failed verification");
  }
  return shrunk;
}

}  // namespace xmlup
