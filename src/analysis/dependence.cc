#include "analysis/dependence.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlup {
namespace {

/// Analyzer observability: how many statement pairs were examined and how
/// many candidate ordering edges the conflict verdicts pruned away (the
/// payoff metric — pruned edges are the parallelism §6 is after).
struct DependenceMetrics {
  obs::Counter& pairs_analyzed;
  obs::Counter& edges_pruned;

  static const DependenceMetrics& Get() {
    static const DependenceMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new DependenceMetrics{
          reg.GetCounter("dependence.pairs_analyzed"),
          reg.GetCounter("dependence.edges_pruned"),
      };
    }();
    return *metrics;
  }
};

/// `graph` over `statements` as an analysis result: one Dependence per
/// edge, its reason the shared tree variable, and the pair counts. Records
/// the dependence.* counters.
DependenceAnalysisResult SummarizeDependences(
    const std::vector<Statement>& statements, const DependenceGraph& graph) {
  DependenceAnalysisResult result;
  for (const DependenceEdge& edge : graph.edges()) {
    result.dependences.push_back(
        {edge.from, edge.to, statements[edge.from].target_var});
  }
  const size_t n = statements.size();
  result.pairs_total = n < 2 ? 0 : n * (n - 1) / 2;
  result.pairs_independent = result.pairs_total - result.dependences.size();
  const DependenceMetrics& metrics = DependenceMetrics::Get();
  metrics.pairs_analyzed.Increment(result.pairs_total);
  metrics.edges_pruned.Increment(result.pairs_independent);
  return result;
}

}  // namespace

DependenceAnalyzer::DependenceAnalyzer(DetectorOptions options)
    : DependenceAnalyzer(
          BatchDetectorOptions{.detector = options, .store = nullptr}) {}

DependenceAnalyzer::DependenceAnalyzer(BatchDetectorOptions options)
    : batch_([&options] {
        // Edges come from verdicts alone: no witness is built or
        // re-checked.
        options.detector.build_witness = false;
        return std::move(options);
      }()) {}

DependenceGraph DependenceAnalyzer::Graph(const Program& program) const {
  const std::vector<Statement>& statements = program.statements();
  return BuildDependenceGraph(
      statements, BindStatements(statements, batch_.pattern_store()), batch_);
}

DependenceAnalysisResult DependenceAnalyzer::Analyze(
    const Program& program) const {
  obs::TraceSpan span("DependenceAnalyze");
  return SummarizeDependences(program.statements(), Graph(program));
}

}  // namespace xmlup
