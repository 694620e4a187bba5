#include "analysis/optimizer.h"

#include <optional>

#include "common/check.h"

namespace xmlup {

Optimizer::Optimizer(DetectorOptions options) : analyzer_(options) {}

OptimizeResult Optimizer::EliminateCommonReads(const Program& program) const {
  OptimizeResult result;
  result.program = program;
  const std::vector<std::optional<size_t>> aliases =
      SelectReadAliases(program.statements(), analyzer_.Graph(program));
  for (size_t j = 0; j < aliases.size(); ++j) {
    if (!aliases[j].has_value()) continue;
    result.program.mutable_statements()[j].alias_of = aliases[j];
    ++result.reads_aliased;
  }
  return result;
}

std::vector<size_t> Optimizer::HoistReadsSchedule(
    const Program& program) const {
  const DependenceGraph graph = analyzer_.Graph(program);
  const size_t n = program.size();
  std::vector<std::vector<size_t>> successors(n);
  std::vector<size_t> in_degree(n, 0);
  for (const DependenceEdge& d : graph.edges()) {
    successors[d.from].push_back(d.to);
    ++in_degree[d.to];
  }
  // Kahn's algorithm with a priority: ready reads first (hoisting), then
  // original order as a tiebreak for determinism.
  std::vector<size_t> schedule;
  std::vector<bool> done(n, false);
  while (schedule.size() < n) {
    size_t pick = SIZE_MAX;
    bool pick_is_read = false;
    for (size_t i = 0; i < n; ++i) {
      if (done[i] || in_degree[i] != 0) continue;
      const bool is_read =
          program.statements()[i].kind == Statement::Kind::kRead;
      if (pick == SIZE_MAX || (is_read && !pick_is_read)) {
        pick = i;
        pick_is_read = is_read;
      }
    }
    XMLUP_CHECK(pick != SIZE_MAX);
    done[pick] = true;
    schedule.push_back(pick);
    for (size_t succ : successors[pick]) --in_degree[succ];
  }
  return schedule;
}

Program Optimizer::Reorder(const Program& program,
                           const std::vector<size_t>& schedule) {
  XMLUP_CHECK(schedule.size() == program.size());
  Program reordered;
  for (size_t index : schedule) {
    const Statement& s = program.statements()[index];
    XMLUP_CHECK_STREAM(!s.alias_of.has_value())
        << "reorder CSE-annotated programs before aliasing, not after";
    reordered.mutable_statements().push_back(s);
  }
  return reordered;
}

}  // namespace xmlup
