#ifndef XMLUP_ANALYSIS_OPTIMIZER_H_
#define XMLUP_ANALYSIS_OPTIMIZER_H_

#include <vector>

#include "analysis/dependence.h"
#include "analysis/program.h"

namespace xmlup {

/// Program optimizations enabled by conflict detection (§1):
///
///  - **Read CSE**: a read identical (same variable, same pattern) to an
///    earlier read, with no conflicting update on that variable in
///    between, is replaced by an alias to the earlier result — the paper's
///    `let u = y` example.
///  - **Scheduling**: the dependence DAG admits reorderings; we expose a
///    hoisted schedule (reads as early as their dependences allow), the
///    enabling transformation for batching tree traversals.
///
/// Both run on DependenceAnalyzer::Graph; the CSE is the shared alias
/// selection (SelectReadAliases) that the lint redundant-read rule reports.
struct OptimizeResult {
  Program program;
  size_t reads_aliased = 0;
};

class Optimizer {
 public:
  explicit Optimizer(DetectorOptions options = {});

  /// Applies read CSE; the returned program is observably equivalent under
  /// value semantics (validated by the test suite by executing both).
  OptimizeResult EliminateCommonReads(const Program& program) const;

  /// A dependence-respecting schedule with reads hoisted as early as
  /// possible. Returns statement indices in new execution order.
  std::vector<size_t> HoistReadsSchedule(const Program& program) const;

  /// Reorders `program` according to `schedule` (a permutation).
  static Program Reorder(const Program& program,
                         const std::vector<size_t>& schedule);

 private:
  DependenceAnalyzer analyzer_;
};

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_OPTIMIZER_H_
