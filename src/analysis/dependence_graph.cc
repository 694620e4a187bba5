#include "analysis/dependence_graph.h"

#include <algorithm>

#include "common/check.h"
#include "conflict/update_independence.h"
#include "obs/trace.h"
#include "pattern/pattern_ops.h"

namespace xmlup {
namespace {

enum class PairKind { kMalformed, kUpdatePair, kReadUpdate };

/// Calls fn(i, j, kind) for every pair i < j on one tree variable with at
/// least one update, in (i, j) order — the pairs BuildDependenceGraph
/// orders or asks about.
template <typename Fn>
void ForEachSameVariablePair(const std::vector<Statement>& statements,
                             const std::vector<Result<UpdateOp>>& ops,
                             Fn&& fn) {
  XMLUP_CHECK(ops.size() == statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    for (size_t j = i + 1; j < statements.size(); ++j) {
      const Statement& a = statements[i];
      const Statement& b = statements[j];
      if (a.target_var != b.target_var) continue;
      if (!IsUpdate(a) && !IsUpdate(b)) continue;
      if ((IsUpdate(a) && !ops[i].ok()) || (IsUpdate(b) && !ops[j].ok())) {
        fn(i, j, PairKind::kMalformed);
      } else if (IsUpdate(a) && IsUpdate(b)) {
        fn(i, j, PairKind::kUpdatePair);
      } else {
        fn(i, j, PairKind::kReadUpdate);
      }
    }
  }
}

}  // namespace

bool IsUpdate(const Statement& s) {
  return s.kind == Statement::Kind::kInsert ||
         s.kind == Statement::Kind::kDelete;
}

Result<UpdateOp> ToUpdateOp(const Statement& s) {
  if (s.kind == Statement::Kind::kDelete) {
    Result<UpdateOp> del = UpdateOp::MakeDelete(s.pattern);
    if (del.ok()) return del;
    return Status::InvalidArgument(
        "delete pattern selects the root of its tree");
  }
  if (s.kind == Statement::Kind::kRead) {
    return Status::InvalidArgument("a read is not an update");
  }
  if (s.content == nullptr) {
    return Status::InvalidArgument("insert has no content tree");
  }
  if (!s.content->has_root()) {
    return Status::InvalidArgument("insert content tree has no root");
  }
  return UpdateOp::MakeInsert(s.pattern, s.content);
}

std::vector<Result<UpdateOp>> BindStatements(
    const std::vector<Statement>& statements,
    const std::shared_ptr<PatternStore>& store) {
  std::vector<Result<UpdateOp>> ops;
  ops.reserve(statements.size());
  for (const Statement& s : statements) {
    Result<UpdateOp> op = ToUpdateOp(s);
    if (op.ok()) op = op->Bind(store);
    ops.push_back(std::move(op));
  }
  return ops;
}

DependenceGraph::DependenceGraph(size_t size)
    : size_(size), ordered_(size * size, false) {}

bool DependenceGraph::Ordered(size_t from, size_t to) const {
  XMLUP_DCHECK(from < size_ && to < size_);
  return ordered_[from * size_ + to];
}

void DependenceGraph::AddEdge(DependenceEdge edge) {
  XMLUP_CHECK(edge.from < edge.to && edge.to < size_);
  XMLUP_CHECK(!Ordered(edge.from, edge.to));
  ordered_[edge.from * size_ + edge.to] = true;
  edges_.push_back(std::move(edge));
}

DependenceGraph BuildDependenceGraph(const std::vector<Statement>& statements,
                                     const std::vector<Result<UpdateOp>>& ops,
                                     BatchConflictDetector& batch) {
  obs::TraceSpan span("DependenceGraph.build");
  const size_t n = statements.size();
  // Each statement enters the read/update pools once, on interned refs and
  // bound ops, so the batch call runs with no per-pair canonicalization.
  const std::shared_ptr<PatternStore>& store = batch.pattern_store();
  std::vector<PatternRef> reads;
  std::vector<UpdateOp> updates;
  std::vector<size_t> slot(n, SIZE_MAX);  // statement → reads/updates index
  std::vector<ReadUpdatePair> pairs;
  ForEachSameVariablePair(statements, ops, [&](size_t i, size_t j,
                                               PairKind kind) {
    if (kind != PairKind::kReadUpdate) return;
    const size_t read = IsUpdate(statements[i]) ? j : i;
    const size_t update = IsUpdate(statements[i]) ? i : j;
    if (slot[read] == SIZE_MAX) {
      slot[read] = reads.size();
      reads.push_back(store->Intern(statements[read].pattern));
    }
    if (slot[update] == SIZE_MAX) {
      slot[update] = updates.size();
      updates.push_back(*ops[update]);
    }
    pairs.push_back({slot[read], slot[update]});
  });
  const std::vector<SharedConflictResult> verdicts =
      batch.DetectPairs(reads, updates, pairs);
  const DetectorOptions& options = batch.options().detector;

  // The second visit meets the read/update pairs in the order the first
  // one listed them, so the k-th such pair takes verdicts[k].
  DependenceGraph graph(n);
  ForEachSameVariablePair(statements, ops, [&](size_t i, size_t j,
                                               PairKind kind) {
    switch (kind) {
      case PairKind::kMalformed: {
        const size_t bad = IsUpdate(statements[i]) && !ops[i].ok() ? i : j;
        graph.AddEdge(
            {i, j, EdgeReason::kMalformed, ops[bad].status().message()});
        return;
      }
      case PairKind::kUpdatePair: {
        // §6: update/update conflicts are NP-hard in general; the sound
        // commutativity certificate proves many pairs reorderable, and
        // anything it cannot clear stays ordered.
        ++graph.certificates_consulted_;
        const Result<IndependenceReport> cert =
            CertifyUpdatesCommute(*ops[i], *ops[j], options);
        if (!cert.ok()) {
          graph.AddEdge(
              {i, j, EdgeReason::kUpdatePair, cert.status().ToString()});
        } else if (cert->certificate != CommutativityCertificate::kCertified) {
          graph.AddEdge(
              {i, j, EdgeReason::kUpdatePair, std::string(cert->detail)});
        }
        return;
      }
      case PairKind::kReadUpdate: {
        const Result<ConflictReport>& report =
            *verdicts[graph.verdicts_consulted_++];
        if (!report.ok()) {
          graph.AddEdge({i, j, EdgeReason::kError, report.status().ToString()});
        } else if (report->verdict == ConflictVerdict::kConflict) {
          graph.AddEdge({i, j, EdgeReason::kConflict, ""});
        } else if (report->verdict == ConflictVerdict::kUnknown) {
          // The soundness invariant: truncation is a dependence.
          graph.AddEdge({i, j, EdgeReason::kUnknown, ""});
        }
        return;
      }
    }
  });
  return graph;
}

std::vector<std::optional<size_t>> SelectReadAliases(
    const std::vector<Statement>& statements, const DependenceGraph& graph) {
  const size_t n = statements.size();
  XMLUP_CHECK(graph.size() == n);
  std::vector<std::optional<size_t>> alias(n);
  auto aliased = [&](size_t s) {
    return statements[s].alias_of.has_value() || alias[s].has_value();
  };
  for (size_t j = 0; j < n; ++j) {
    const Statement& later = statements[j];
    if (later.kind != Statement::Kind::kRead || aliased(j)) continue;
    for (size_t i = 0; i < j; ++i) {
      const Statement& earlier = statements[i];
      if (earlier.kind != Statement::Kind::kRead || aliased(i)) continue;
      if (earlier.target_var != later.target_var) continue;
      if (!PatternsIdentical(earlier.pattern, later.pattern)) continue;
      // Safe iff no update between i and j must stay before j.
      bool blocked = false;
      for (size_t k = i + 1; k < j && !blocked; ++k) {
        blocked = IsUpdate(statements[k]) && graph.Ordered(k, j);
      }
      if (blocked) continue;
      alias[j] = i;
      break;
    }
  }
  return alias;
}

Wavefronts ComputeWavefronts(size_t size,
                             const std::vector<DependenceEdge>& edges,
                             const std::vector<char>& excluded) {
  Wavefronts waves;
  // Every edge points forward, so settling nodes in index order finishes
  // each predecessor's level before any successor reads it.
  std::vector<std::vector<size_t>> predecessors(size);
  for (const DependenceEdge& edge : edges) {
    XMLUP_CHECK(edge.from < edge.to && edge.to < size);
    predecessors[edge.to].push_back(edge.from);
  }
  waves.level.assign(size, 0);
  for (size_t node = 0; node < size; ++node) {
    for (size_t from : predecessors[node]) {
      waves.level[node] = std::max(waves.level[node], waves.level[from] + 1);
    }
    if (!excluded.empty() && excluded[node]) continue;
    const size_t level = waves.level[node];
    if (waves.batches.size() <= level) waves.batches.resize(level + 1);
    waves.batches[level].push_back(node);
  }
  for (const std::vector<size_t>& batch : waves.batches) {
    waves.width = std::max(waves.width, batch.size());
  }
  return waves;
}

}  // namespace xmlup
