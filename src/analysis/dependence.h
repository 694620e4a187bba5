#ifndef XMLUP_ANALYSIS_DEPENDENCE_H_
#define XMLUP_ANALYSIS_DEPENDENCE_H_

#include <string>
#include <vector>

#include "analysis/dependence_graph.h"
#include "analysis/program.h"
#include "conflict/batch_detector.h"
#include "conflict/detector.h"

namespace xmlup {

/// Data-dependence analysis over a straight-line update program — the
/// compiler use case that motivates the paper (§1): knowing that a read
/// does not conflict with an update enables code motion and common
/// subexpression elimination.
///
/// Pairs are classified by the shared dependence core
/// (analysis/dependence_graph.h):
///  - statements on different tree variables are independent;
///  - read/read pairs are independent;
///  - read/update pairs use the unified conflict detector (complete for
///    linear reads, Theorems 1-2); an Unknown verdict is treated as a
///    dependence (conservative);
///  - update/update pairs on the same variable stay ordered unless the §6
///    commutativity certificate (update_independence.h) clears them;
///  - a malformed update is dependent on every statement on its variable.
///
/// Analyze() routes all read/update pairs through the batch
/// conflict-matrix engine (conflict/batch_detector.h): the full pair set
/// is solved on a thread pool, each distinct canonical pattern pair once
/// per call, so programs with repeated patterns — the common case for
/// generated programs — pay for each distinct pair once. Updates are bound
/// to the engine's store, so the certificates run on interned refs too.
/// Only the store (interned patterns, compiled forms) persists across
/// Analyze() calls on the same analyzer.
struct Dependence {
  size_t from;  // earlier statement index
  size_t to;    // later statement index
  std::string reason;
};

struct DependenceAnalysisResult {
  std::vector<Dependence> dependences;
  /// Pairs examined and pairs proven independent (benchmark E8 reports the
  /// independent fraction).
  size_t pairs_total = 0;
  size_t pairs_independent = 0;
};

class DependenceAnalyzer {
 public:
  explicit DependenceAnalyzer(DetectorOptions options = {});
  /// Full control over threading and the store of the batch engine.
  explicit DependenceAnalyzer(BatchDetectorOptions options);

  /// The classified dependence graph of `program`, edge reasons included
  /// (BuildDependenceGraph: one DetectPairs call plus the certificates).
  DependenceGraph Graph(const Program& program) const;

  /// Graph() summarized as a dependence list.
  DependenceAnalysisResult Analyze(const Program& program) const;

 private:
  /// Mutable: each Analyze() call updates its cumulative stats; the
  /// analysis result itself does not depend on earlier calls.
  mutable BatchConflictDetector batch_;
};

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_DEPENDENCE_H_
