#include "eval/evaluator.h"

#include <algorithm>
#include <bit>

namespace xmlup {
namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

constexpr uint32_t kNoParent = UINT32_MAX;

/// A node of the region, with its tree parent's position in the region
/// (kNoParent at the anchor).
struct RegionNode {
  NodeId node;
  uint32_t up;
};

/// A node waiting on the walk stack. `subtree`: a pattern node open at it
/// or above it has a descendant-axis child, so the walk takes every node
/// below it.
struct Frame {
  NodeId node;
  uint32_t up;
  bool subtree;
};

/// A node of the linear walk: the chain nodes open at it, and those open
/// at it or at one of its ancestors.
struct ChainFrame {
  NodeId node;
  uint64_t open;
  uint64_t reach;
};

/// A chain of at most 64 nodes as the linear walk reads it: chain node i
/// is bit i. The axis of node 0 is ignored. Assign recompiles in place and
/// keeps the label table's capacity.
struct ChainMasks {
  /// The nodes i >= 1 entered by a child-axis and a descendant-axis edge.
  uint64_t child_axis = 0;
  uint64_t desc_axis = 0;
  /// The wildcard nodes, and the last node (O(p) of a linear pattern).
  uint64_t wild = 0;
  uint64_t last = 0;
  /// The chain's distinct labels and, per label, the nodes testing for it.
  std::vector<Label> labels;
  std::vector<uint64_t> label_nodes;

  /// The chain nodes whose label test accepts `label`.
  uint64_t Accepts(Label label) const {
    uint64_t nodes = wild;
    for (size_t i = 0; i < labels.size(); ++i) {
      nodes |= labels[i] == label ? label_nodes[i] : 0;
    }
    return nodes;
  }

  void Assign(const LinearChain& chain) {
    Reset(chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      Add(i, chain.classes[i], chain.axes[i]);
    }
  }

  /// A linear pattern, whose node ids are its depths.
  void Assign(const Pattern& p) {
    Reset(p.size());
    for (PatternNodeId q = 0; q < p.size(); ++q) {
      Add(q, p.is_wildcard(q) ? LabelClass::Any() : LabelClass::Of(p.label(q)),
          p.axis(q));
    }
  }

 private:
  void Reset(size_t size) {
    child_axis = desc_axis = wild = 0;
    last = uint64_t{1} << (size - 1);
    labels.clear();
    label_nodes.clear();
  }

  void Add(size_t i, const LabelClass& test, Axis axis) {
    const uint64_t bit = uint64_t{1} << i;
    if (i > 0) (axis == Axis::kChild ? child_axis : desc_axis) |= bit;
    if (test.any) {
      wild |= bit;
      return;
    }
    const size_t at =
        std::find(labels.begin(), labels.end(), test.label) - labels.begin();
    if (at == labels.size()) {
      labels.push_back(test.label);
      label_nodes.push_back(0);
    }
    label_nodes[at] |= bit;
  }
};

/// One edge of the pattern path ROOT(p) → O(p), as word/bit positions.
struct Link {
  size_t word, up_word;
  uint64_t bit, up_bit;
  bool child;
};

/// The evaluator's scratch, one per thread and reused across calls like
/// dp_matcher's: every vector is cleared or assigned, which keeps its
/// capacity, so a warm thread allocates nothing per call but the result.
/// It is bounded by the largest region the thread has evaluated. No entry
/// point calls another while it uses the scratch.
struct Scratch {
  PatternMasks masks;
  /// Per pattern node, the row of its child-axis children.
  std::vector<uint64_t> kids;
  /// The pattern nodes with a descendant-axis child.
  std::vector<uint64_t> desc_parents;
  /// The walked nodes, each after its tree parent.
  std::vector<RegionNode> region;
  /// Per region position its sat and below rows, then one spare sat row.
  std::vector<uint64_t> rows;
  std::vector<Frame> stack;
  /// The open row of every stacked frame not in subtree mode, in stack
  /// order, so a popped frame not in subtree mode owns the last row.
  std::vector<uint64_t> open;
  /// The kid row of the node being expanded.
  std::vector<uint64_t> kid;
  std::vector<Link> path;
  /// The linear walk's chain and stack.
  ChainMasks chain_masks;
  std::vector<ChainFrame> chain;

  static Scratch& Get() {
    thread_local Scratch scratch;
    return scratch;
  }

  size_t words() const { return masks.words(); }
  uint64_t* Sat(uint32_t at) { return &rows[size_t{at} * 2 * words()]; }
  uint64_t* Below(uint32_t at) { return Sat(at) + words(); }
};

/// Compiles `p` into the scratch's masks, kid rows and desc_parents.
void Compile(const Pattern& p, Scratch& s) {
  const Pattern* const forest[] = {&p};
  s.masks.Assign(forest);
  const size_t words = s.words();
  s.kids.assign(p.size() * words, 0);
  s.desc_parents.assign(words, 0);
  for (PatternNodeId q = 0; q < p.size(); ++q) {
    for (PatternNodeId c = p.first_child(q); c != kNullPatternNode;
         c = p.next_sibling(c)) {
      if (p.axis(c) == Axis::kChild) {
        s.kids[q * words + c / 64] |= uint64_t{1} << (c % 64);
      } else {
        s.desc_parents[q / 64] |= uint64_t{1} << (q % 64);
      }
    }
  }
}

/// Walks the region of `p` under `anchor` into s.region, top-down. A node
/// is open for the pattern nodes that may map to it: ROOT(p) at the
/// anchor, and at a child the child-axis children of its parent's open
/// nodes whose label test accepts it. The walk enters a child only when
/// that set is non-empty, and once an open node has a descendant-axis
/// child it takes the whole subtree without mask work. Every embedding
/// that maps ROOT(p) to the anchor has its image in the region, and each
/// region node's rows are exact for the pattern nodes open at it (see
/// DESIGN.md, "Evaluator"). With `anywhere`, ROOT(p) may map to any node,
/// so the region is the whole subtree.
void Walk(const Pattern& p, const Tree& t, NodeId anchor, bool anywhere,
          Scratch& s) {
  const size_t words = s.words();
  s.region.clear();
  s.stack.clear();
  s.open.clear();
  s.kid.resize(words);
  if (anywhere) {
    s.stack.push_back({anchor, kNoParent, true});
  } else {
    const PatternNodeId root = p.root();
    if (!PatternMasks::Test(s.masks.LabelRow(t.label(anchor)), root)) return;
    const bool subtree = PatternMasks::Test(s.desc_parents.data(), root);
    if (!subtree) {
      s.open.assign(words, 0);
      s.open[root / 64] = uint64_t{1} << (root % 64);
    }
    s.stack.push_back({anchor, kNoParent, subtree});
  }
  uint64_t* const kid = s.kid.data();
  while (!s.stack.empty()) {
    const Frame frame = s.stack.back();
    s.stack.pop_back();
    const uint32_t at = static_cast<uint32_t>(s.region.size());
    s.region.push_back({frame.node, frame.up});
    if (frame.subtree) {
      for (NodeId c = t.first_child(frame.node); c != kNullNode;
           c = t.next_sibling(c)) {
        s.stack.push_back({c, at, true});
      }
      continue;
    }
    // The kid row: the child-axis children of the node's open nodes.
    const uint64_t* const open = &s.open[s.open.size() - words];
    std::fill(kid, kid + words, 0);
    uint64_t any = 0;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = open[w]; bits != 0; bits &= bits - 1) {
        const uint64_t* const row =
            &s.kids[(w * 64 + std::countr_zero(bits)) * words];
        for (size_t v = 0; v < words; ++v) {
          kid[v] |= row[v];
          any |= row[v];
        }
      }
    }
    s.open.resize(s.open.size() - words);
    if (any == 0) continue;
    for (NodeId c = t.first_child(frame.node); c != kNullNode;
         c = t.next_sibling(c)) {
      const uint64_t* const labels = s.masks.LabelRow(t.label(c));
      uint64_t entered = 0;
      uint64_t pending = 0;
      for (size_t w = 0; w < words; ++w) {
        entered |= kid[w] & labels[w];
        pending |= kid[w] & labels[w] & s.desc_parents[w];
      }
      if (entered == 0) continue;
      if (pending == 0) {
        for (size_t w = 0; w < words; ++w) {
          s.open.push_back(kid[w] & labels[w]);
        }
      }
      s.stack.push_back({c, at, pending != 0});
    }
  }
}

/// The sat and below rows (PatternMasks::Step) of every region node, in
/// one pass from the last walked node to the anchor: a node comes after
/// its tree parent in the region, so by its turn its rows hold the unions
/// of its children's (cs, cb), which Step turns into its own before they
/// are added to its parent's. A node outside the region counts as one
/// where nothing embeds.
void SatBelow(const Tree& t, Scratch& s) {
  const size_t words = s.words();
  const size_t size = s.region.size();
  s.rows.assign((2 * size + 1) * words, 0);
  uint64_t* const sat = s.rows.data() + 2 * size * words;
  for (size_t i = size; i-- > 0;) {
    uint64_t* const cs = s.Sat(static_cast<uint32_t>(i));
    uint64_t* const cb = cs + words;
    const uint64_t* const labels =
        s.masks.LabelRow(t.label(s.region[i].node));
    // A label no pattern node accepts, with nothing embedded below, leaves
    // the rows of the node and of its parent as they are.
    uint64_t live = 0;
    for (size_t w = 0; w < words; ++w) live |= labels[w] | cb[w];
    if (live == 0) continue;
    s.masks.Step(labels, cs, cb, sat, cb);
    std::copy(sat, sat + words, cs);
    const uint32_t up = s.region[i].up;
    if (up == kNoParent) continue;
    // The parent's sat row, then its below row.
    uint64_t* const dst = s.Sat(up);
    for (size_t w = 0; w < 2 * words; ++w) dst[w] |= cs[w];
  }
}

/// Compiles `p`, walks its region under `anchor` and computes the region's
/// rows; position 0 is the anchor. Null when the region is empty.
Scratch* EvaluateRegion(const Pattern& p, const Tree& t, NodeId anchor,
                        bool anywhere) {
  Scratch& s = Scratch::Get();
  Compile(p, s);
  Walk(p, t, anchor, anywhere, s);
  if (s.region.empty()) return nullptr;
  SatBelow(t, s);
  return &s;
}

/// The linear walk: the Shift-And automaton of a chain of at most 64
/// nodes run down every tree path below `anchor`. Chain node i is open at
/// a tree node n iff its label test accepts n and node i - 1 is open at
/// n's parent (child axis) or at some proper ancestor of n (descendant
/// axis), i.e. in the parent's reach; node 0 opens at the anchor, and with
/// `anywhere` at every node under it too, as if a descendant edge led into
/// it from above the anchor. A child whose open row and whose parent's
/// descendant-successor row are both empty has nothing open anywhere in
/// its subtree, so the walk skips it. The chain embeds with its last node
/// at n iff that node is open at n (see DESIGN.md, "Evaluator"). With
/// `result`, every such n is appended in walk order and the return value
/// says whether there was one; without, the walk stops at the first.
bool WalkChain(const ChainMasks& c, const Tree& t, NodeId anchor,
               bool anywhere, std::vector<NodeId>* result, Scratch& s) {
  const uint64_t start = anywhere ? 1 : 0;
  const uint64_t root = c.Accepts(t.label(anchor)) & 1;
  if ((root | start) == 0) return false;
  bool found = false;
  s.chain.clear();
  s.chain.push_back({anchor, root, root});
  while (!s.chain.empty()) {
    const ChainFrame frame = s.chain.back();
    s.chain.pop_back();
    if ((frame.open & c.last) != 0) {
      if (result == nullptr) return true;
      result->push_back(frame.node);
      found = true;
    }
    // The chain nodes that may open at a child, and those of them a
    // descendant edge carries further down whatever the child's label.
    const uint64_t below = ((frame.reach << 1) & c.desc_axis) | start;
    const uint64_t next = ((frame.open << 1) & c.child_axis) | below;
    if (next == 0) continue;
    for (NodeId child = t.first_child(frame.node); child != kNullNode;
         child = t.next_sibling(child)) {
      const uint64_t open = c.Accepts(t.label(child)) & next;
      if ((open | below) == 0) continue;
      s.chain.push_back({child, open, frame.reach | open});
    }
  }
  return found;
}

/// EmbedsAt / EmbedsAnywhereIn of a chain view: the walk from `at`,
/// stopped at the first embedding.
bool ChainEmbeds(const LinearChain& chain, const Tree& t, NodeId at,
                 bool anywhere) {
  XMLUP_CHECK(chain.size() >= 1 && chain.size() <= 64);
  XMLUP_DCHECK(t.alive(at));
  Scratch& s = Scratch::Get();
  s.chain_masks.Assign(chain);
  return WalkChain(s.chain_masks, t, at, anywhere, nullptr, s);
}

}  // namespace

void PatternMasks::Assign(std::span<const Pattern* const> patterns) {
  offsets_.clear();
  labels_.clear();
  inner_.clear();
  needs_.clear();
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
  if (p.size() <= 64 && p.IsLinear()) {
    // A linear pattern has no predicates, so its results are the nodes
    // where its last node opens. A linear pattern's node ids are its
    // depths.
    Scratch& s = Scratch::Get();
    s.chain_masks.Assign(p);
    std::vector<NodeId> result;
    WalkChain(s.chain_masks, t, t.root(), /*anywhere=*/false, &result, s);
    // The walk's order is not id order.
    std::sort(result.begin(), result.end());
    return result;
  }
  Scratch* const s = EvaluateRegion(p, t, t.root(), /*anywhere=*/false);
  if (s == nullptr || !PatternMasks::Test(s->Sat(0), p.root())) return {};
  if (p.output() == p.root()) return {t.root()};
  // Only the path ROOT(p) → O(p) decides where O(p) maps. Parents first,
  // each region node's rows are rewritten on that path: sat becomes cand
  // (the path nodes some full embedding maps to the node) and below
  // becomes reach (cand of the node or of a proper ancestor). A path node
  // q joins cand(n) iff q ∈ sat(n) and its parent is in cand (child axis)
  // or reach (descendant axis) of n's parent.
  std::vector<Link>& path = s->path;
  path.clear();
  for (PatternNodeId q = p.output(); q != p.root(); q = p.parent(q)) {
    const PatternNodeId up = p.parent(q);
    path.push_back({q / 64, up / 64, uint64_t{1} << (q % 64),
                    uint64_t{1} << (up % 64), p.axis(q) == Axis::kChild});
  }
  std::reverse(path.begin(), path.end());
  const size_t words = s->words();
  const size_t root_word = p.root() / 64;
  const uint64_t root_bit = uint64_t{1} << (p.root() % 64);
  // At the tree root only ROOT(p) is a candidate.
  std::fill(s->Sat(0), s->Sat(0) + 2 * words, 0);
  s->Sat(0)[root_word] = root_bit;
  s->Below(0)[root_word] = root_bit;
  const Link& output = path.back();
  std::vector<NodeId> result;
  for (uint32_t i = 1; i < s->region.size(); ++i) {
    const uint32_t up = s->region[i].up;
    const uint64_t* const cand_up = s->Sat(up);
    const uint64_t* const reach_up = s->Below(up);
    uint64_t* const cand = s->Sat(i);
    uint64_t* const reach = s->Below(i);
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
    if ((cand[output.word] & output.bit) != 0) {
      result.push_back(s->region[i].node);
    }
  }
  // The walk's order is not id order once grafts interleave subtrees.
  std::sort(result.begin(), result.end());
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
  Scratch* const s = EvaluateRegion(p, t, at, /*anywhere=*/false);
  return s != nullptr && PatternMasks::Test(s->Sat(0), p.root());
}

bool EmbedsAnywhereIn(const Pattern& p, const Tree& t, NodeId scope) {
  XMLUP_CHECK(p.has_root());
  XMLUP_DCHECK(t.alive(scope));
  Scratch* const s = EvaluateRegion(p, t, scope, /*anywhere=*/true);
  return PatternMasks::Test(s->Below(0), p.root());
}

bool EmbedsAt(const LinearChain& chain, const Tree& t, NodeId at) {
  return ChainEmbeds(chain, t, at, /*anywhere=*/false);
}

bool EmbedsAnywhereIn(const LinearChain& chain, const Tree& t, NodeId scope) {
  return ChainEmbeds(chain, t, scope, /*anywhere=*/true);
}

}  // namespace xmlup
