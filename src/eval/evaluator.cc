#include "eval/evaluator.h"

#include <algorithm>

namespace xmlup {
namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

/// The sat and below rows (PatternMasks::Step) of tree slots lo and up.
struct SatRows {
  size_t words;
  NodeId lo;
  std::vector<uint64_t> rows;

  uint64_t* Sat(NodeId n) { return &rows[(n - lo) * 2 * words]; }
  uint64_t* Below(NodeId n) { return Sat(n) + words; }
};

/// One sweep over the slots [lo, capacity) in descending id order. A
/// parent's id is smaller than its children's (see Tree), so a node comes
/// after all its children: by then its rows hold the unions of theirs (cs,
/// cb), which Step turns into its own before they are added to its
/// parent's. Dead slots stay empty.
SatRows SweepFrom(const Pattern& p, const Tree& t, NodeId lo) {
  const Pattern* const forest[] = {&p};
  const PatternMasks masks(forest);
  const size_t words = masks.words();
  // One slot more than the tree has, for the sat row Step writes.
  SatRows out{words, lo,
              std::vector<uint64_t>((t.capacity() - lo + 1) * 2 * words, 0)};
  uint64_t* const base = out.rows.data();
  uint64_t* const sat = base + out.rows.size() - words;
  for (NodeId n = static_cast<NodeId>(t.capacity()); n-- > lo;) {
    if (!t.alive(n)) continue;
    uint64_t* const cs = base + (n - lo) * 2 * words;
    uint64_t* const cb = cs + words;
    const uint64_t* const labels = masks.LabelRow(t.label(n));
    // A label no pattern node accepts, with nothing embedded below, leaves
    // the rows of the node and of its parent as they are.
    uint64_t live = 0;
    for (size_t w = 0; w < words; ++w) live |= labels[w] | cb[w];
    if (live == 0) continue;
    masks.Step(labels, cs, cb, sat, cb);
    std::copy(sat, sat + words, cs);
    const NodeId parent = t.parent(n);
    if (parent == kNullNode || parent < lo) continue;
    // The parent's sat row, then its below row.
    uint64_t* const up = base + (parent - lo) * 2 * words;
    for (size_t w = 0; w < 2 * words; ++w) up[w] |= cs[w];
  }
  return out;
}

}  // namespace

PatternMasks::PatternMasks(std::span<const Pattern* const> patterns) {
  size_t nodes = 0;
  for (const Pattern* p : patterns) {
    offsets_.push_back(nodes);
    nodes += p->size();
    for (PatternNodeId q = 0; q < p->size(); ++q) {
      if (!p->is_wildcard(q) &&
          std::find(labels_.begin(), labels_.end(), p->label(q)) ==
              labels_.end()) {
        labels_.push_back(p->label(q));
      }
    }
  }
  words_ = (nodes + 63) / 64;
  const size_t other = labels_.size();
  rows_.assign((other + 2) * words_, 0);
  uint64_t* const leaves = &rows_[(other + 1) * words_];
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& p = *patterns[i];
    for (PatternNodeId q = 0; q < p.size(); ++q) {
      const size_t bit = Bit(i, q);
      const uint64_t mask = uint64_t{1} << (bit % 64);
      if (p.is_wildcard(q)) {
        for (size_t row = 0; row <= other; ++row) {
          rows_[row * words_ + bit / 64] |= mask;
        }
      } else {
        const size_t row =
            std::find(labels_.begin(), labels_.end(), p.label(q)) -
            labels_.begin();
        rows_[row * words_ + bit / 64] |= mask;
      }
      if (p.first_child(q) == kNullPatternNode) {
        leaves[bit / 64] |= mask;
        continue;
      }
      const uint32_t begin = static_cast<uint32_t>(needs_.size());
      for (PatternNodeId c = p.first_child(q); c != kNullPatternNode;
           c = p.next_sibling(c)) {
        const size_t child = Bit(i, c);
        const uint32_t word = static_cast<uint32_t>(child / 64);
        if (needs_.size() == begin || needs_.back().word != word) {
          needs_.push_back({word, 0, 0});
        }
        Need& need = needs_.back();
        (p.axis(c) == Axis::kChild ? need.child : need.desc) |=
            uint64_t{1} << (child % 64);
      }
      inner_.push_back({static_cast<uint32_t>(bit), begin,
                        static_cast<uint32_t>(needs_.size())});
    }
  }
}

uint64_t CountEmbeddings(const Pattern& p, const Tree& t) {
  XMLUP_CHECK(p.has_root());
  if (!t.has_root() || t.size() == 0) return 0;
  // cnt[q][n]: embeddings of the subpattern rooted at q with q ↦ n.
  // dcnt[q][n]: sum of cnt[q][m] over proper descendants m of n.
  const size_t stride = t.capacity();
  std::vector<uint64_t> cnt(p.size() * stride, 0);
  std::vector<uint64_t> dcnt(p.size() * stride, 0);
  const std::vector<NodeId> tree_post = t.PostOrder();
  const std::vector<PatternNodeId> pat_post = p.PostOrder();
  for (NodeId n : tree_post) {
    for (PatternNodeId q : pat_post) {
      uint64_t total = p.is_wildcard(q) || p.label(q) == t.label(n) ? 1 : 0;
      for (PatternNodeId c = p.first_child(q);
           total != 0 && c != kNullPatternNode; c = p.next_sibling(c)) {
        uint64_t ways = 0;
        for (NodeId m = t.first_child(n); m != kNullNode;
             m = t.next_sibling(m)) {
          ways = SatAdd(ways, cnt[c * stride + m]);
          if (p.axis(c) == Axis::kDescendant) {
            ways = SatAdd(ways, dcnt[c * stride + m]);
          }
        }
        total = SatMul(total, ways);
      }
      cnt[q * stride + n] = total;
      uint64_t below = 0;
      for (NodeId m = t.first_child(n); m != kNullNode;
           m = t.next_sibling(m)) {
        below = SatAdd(below, SatAdd(cnt[q * stride + m],
                                     dcnt[q * stride + m]));
      }
      dcnt[q * stride + n] = below;
    }
  }
  return cnt[p.root() * stride + t.root()];
}

std::vector<NodeId> Evaluate(const Pattern& p, const Tree& t) {
  XMLUP_CHECK(p.has_root());
  if (!t.has_root() || t.size() == 0) return {};
  const NodeId root = t.root();
  SatRows rows = SweepFrom(p, t, root);
  if (!PatternMasks::Test(rows.Sat(root), p.root())) return {};
  if (p.output() == p.root()) return {root};
  // Only the path ROOT(p) → O(p) decides where O(p) maps. In ascending id
  // order, parents first, each node's rows are rewritten on that path: sat
  // becomes cand (the path nodes some full embedding maps to the node) and
  // below becomes reach (cand of the node or of a proper ancestor). A path
  // node q joins cand(n) iff q ∈ sat(n) and its parent is in cand (child
  // axis) or reach (descendant axis) of n's parent.
  struct Link {
    size_t word, up_word;
    uint64_t bit, up_bit;
    bool child;
  };
  std::vector<Link> path;
  for (PatternNodeId q = p.output(); q != p.root(); q = p.parent(q)) {
    const PatternNodeId up = p.parent(q);
    path.push_back({q / 64, up / 64, uint64_t{1} << (q % 64),
                    uint64_t{1} << (up % 64), p.axis(q) == Axis::kChild});
  }
  std::reverse(path.begin(), path.end());
  const size_t root_word = p.root() / 64;
  const uint64_t root_bit = uint64_t{1} << (p.root() % 64);
  // At the tree root only ROOT(p) is a candidate.
  std::fill(rows.Sat(root), rows.Sat(root) + 2 * rows.words, 0);
  rows.Sat(root)[root_word] = root_bit;
  rows.Below(root)[root_word] = root_bit;
  const Link& output = path.back();
  std::vector<NodeId> result;
  for (NodeId n = root + 1; n < t.capacity(); ++n) {
    if (!t.alive(n)) continue;
    const uint64_t* const cand_up = rows.Sat(t.parent(n));
    const uint64_t* const reach_up = rows.Below(t.parent(n));
    uint64_t* const cand = rows.Sat(n);
    uint64_t* const reach = rows.Below(n);
    cand[root_word] &= ~root_bit;
    reach[root_word] |= root_bit;
    for (const Link& link : path) {
      const uint64_t* const from = link.child ? cand_up : reach_up;
      const uint64_t on = ((cand[link.word] & link.bit) != 0) &
                                  ((from[link.up_word] & link.up_bit) != 0)
                              ? link.bit
                              : 0;
      cand[link.word] = (cand[link.word] & ~link.bit) | on;
      reach[link.word] = (reach[link.word] & ~link.bit) | on |
                         (reach_up[link.word] & link.bit);
    }
    if ((cand[output.word] & output.bit) != 0) result.push_back(n);
  }
  return result;
}

bool HasEmbedding(const Pattern& p, const Tree& t) {
  XMLUP_CHECK(p.has_root());
  if (!t.has_root() || t.size() == 0) return false;
  return EmbedsAt(p, t, t.root());
}

bool EmbedsAt(const Pattern& p, const Tree& t, NodeId at) {
  XMLUP_CHECK(p.has_root());
  XMLUP_DCHECK(t.alive(at));
  return PatternMasks::Test(SweepFrom(p, t, at).Sat(at), p.root());
}

bool EmbedsAnywhereIn(const Pattern& p, const Tree& t, NodeId scope) {
  XMLUP_CHECK(p.has_root());
  XMLUP_DCHECK(t.alive(scope));
  return PatternMasks::Test(SweepFrom(p, t, scope).Below(scope), p.root());
}

}  // namespace xmlup
