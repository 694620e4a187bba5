#include "match/dp_matcher.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace xmlup {
namespace {

/// How the breadth-first search first reached a grid cell. The symbol the
/// move consumed follows from the move and the cell it left, so the grid
/// stores one byte per cell and the witness word is rebuilt on the way
/// back.
enum Move : uint8_t {
  kUnvisited,
  kStart,
  kBothAdvance,  // the symbol is l1's and l2's next node
  kL1Advance,    // l1's next node; l2 gaps
  kL2Advance,    // l2's next node; l1 gaps
};

/// Per-thread scratch: the grid of moves and the BFS queue are reused
/// across calls (assign() keeps capacity), so a steady-state match
/// allocates nothing. The queue is a vector with a head cursor — same
/// FIFO order as std::queue with retained storage.
struct DpScratch {
  std::vector<Move> grid;
  std::vector<std::pair<uint32_t, uint32_t>> queue;

  static DpScratch& Get() {
    thread_local DpScratch scratch;
    return scratch;
  }
};

}  // namespace

MatchResult MatchDp(const LinearChain& l1, const LinearChain& l2, bool weak,
                    bool build_word) {
  const size_t m1 = l1.size();
  const size_t m2 = l2.size();
  LabelClass common;
  // Every common word starts with both roots, and a strong match ends with
  // both outputs on one symbol: without those the grid has no path.
  if (!IntersectClasses(l1.classes[0], l2.classes[0], &common)) return {};
  if (!weak &&
      !IntersectClasses(l1.classes[m1 - 1], l2.classes[m2 - 1], &common)) {
    return {};
  }

  // State (i, j): i nodes of l1 and j nodes of l2 matched onto the prefix
  // of a common root-to-leaf path. Both patterns consume the same word;
  // each word symbol is consumed by each side, either by *advancing* (the
  // symbol is the side's next pattern node) or by *gapping* (the symbol is
  // an intermediate node under a pending descendant edge — or, in weak
  // mode, below l2's already-matched output).
  const size_t width = m2 + 1;
  DpScratch& scratch = DpScratch::Get();
  std::vector<Move>& grid = scratch.grid;
  grid.assign((m1 + 1) * width, kUnvisited);

  auto gap1_ok = [&](size_t i) {
    return i >= 1 && i < m1 && l1.axes[i] == Axis::kDescendant;
  };
  auto gap2_ok = [&](size_t j) {
    if (j >= 1 && j < m2 && l2.axes[j] == Axis::kDescendant) return true;
    return weak && j == m2;
  };

  std::vector<std::pair<uint32_t, uint32_t>>& queue = scratch.queue;
  queue.clear();
  size_t queue_head = 0;
  auto visit = [&](size_t i, size_t j, Move move) {
    Move& cell = grid[i * width + j];
    if (cell != kUnvisited) return;
    cell = move;
    queue.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
  };

  visit(0, 0, kStart);
  while (queue_head < queue.size()) {
    const auto [i, j] = queue[queue_head++];
    if (i == m1 && j == m2) {
      MatchResult result;
      result.matches = true;
      if (!build_word) return result;
      // Walk the first-reached moves back to the start, re-deriving each
      // consumed symbol's class.
      size_t bi = i;
      size_t bj = j;
      for (Move move = grid[bi * width + bj]; move != kStart;
           move = grid[bi * width + bj]) {
        switch (move) {
          case kBothAdvance:
            --bi;
            --bj;
            IntersectClasses(l1.classes[bi], l2.classes[bj], &common);
            result.witness_word.push_back(common);
            break;
          case kL1Advance:
            --bi;
            result.witness_word.push_back(l1.classes[bi]);
            break;
          default:  // kL2Advance
            --bj;
            result.witness_word.push_back(l2.classes[bj]);
            break;
        }
      }
      std::reverse(result.witness_word.begin(), result.witness_word.end());
      return result;
    }
    // Both sides advance.
    if (i < m1 && j < m2 &&
        IntersectClasses(l1.classes[i], l2.classes[j], &common)) {
      visit(i + 1, j + 1, kBothAdvance);
    }
    // l1 advances, l2 gaps.
    if (i < m1 && gap2_ok(j)) visit(i + 1, j, kL1Advance);
    // l2 advances, l1 gaps.
    if (j < m2 && gap1_ok(i)) visit(i, j + 1, kL2Advance);
  }
  return MatchResult{};
}

}  // namespace xmlup
