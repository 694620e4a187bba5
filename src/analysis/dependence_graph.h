#ifndef XMLUP_ANALYSIS_DEPENDENCE_GRAPH_H_
#define XMLUP_ANALYSIS_DEPENDENCE_GRAPH_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/program.h"
#include "common/result.h"
#include "conflict/batch_detector.h"
#include "conflict/update_op.h"

namespace xmlup {

/// The dependence core of the §1 compiler use case: knowing when two
/// statements of a straight-line program must keep their order. Every
/// client — DependenceAnalyzer, the Linter, the Optimizer and the
/// MergeExecutor — builds on the four pieces here:
///
///  1. the statement model (IsUpdate, ToUpdateOp);
///  2. the same-variable pair classifier (BuildDependenceGraph), which
///     turns read/update verdicts and update/update §6 certificates into
///     forward edges;
///  3. read-CSE alias selection over those edges;
///  4. wavefront levels over forward edges.

bool IsUpdate(const Statement& s);

/// The UpdateOp an update statement denotes, or why it denotes none. A
/// delete whose pattern selects the root is malformed, and so is an insert
/// with null content or content without a root. Reads are not updates and
/// get an error too.
Result<UpdateOp> ToUpdateOp(const Statement& s);

/// ToUpdateOp for every statement, each well-formed op bound to `store`, so
/// the batch engine and the certificates run on its interned refs.
std::vector<Result<UpdateOp>> BindStatements(
    const std::vector<Statement>& statements,
    const std::shared_ptr<PatternStore>& store);

/// Why two statements must stay ordered.
enum class EdgeReason {
  kConflict,    // the detector proved a read/update conflict
  kUnknown,     // truncated verdict: conservatively ordered
  kError,       // detector error: conservatively ordered
  kUpdatePair,  // update/update pair without a commutativity certificate
  kMalformed,   // an update the detectors cannot model
  kResultVar,   // two reads writing one result variable (lint)
  kAlias,       // a CSE alias follows its source (lint)
};

struct DependenceEdge {
  size_t from;  // earlier index
  size_t to;    // later index
  EdgeReason reason;
  /// The certificate's or detector's diagnostic, or the malformed reason;
  /// may be empty.
  std::string detail;
};

/// Forward edges over `size()` nodes (from < to), at most one per pair.
class DependenceGraph {
 public:
  explicit DependenceGraph(size_t size);

  size_t size() const { return size_; }
  const std::vector<DependenceEdge>& edges() const { return edges_; }
  bool Ordered(size_t from, size_t to) const;

  /// Appends `edge`; the pair must not be ordered yet.
  void AddEdge(DependenceEdge edge);

  /// What the classification that built the graph consulted: verdicts of
  /// same-variable read/update pairs and certificates of same-variable
  /// update pairs (pairs with a malformed update consult neither).
  size_t verdicts_consulted() const { return verdicts_consulted_; }
  size_t certificates_consulted() const { return certificates_consulted_; }

 private:
  friend DependenceGraph BuildDependenceGraph(
      const std::vector<Statement>&, const std::vector<Result<UpdateOp>>&,
      BatchConflictDetector&);

  size_t size_;
  std::vector<DependenceEdge> edges_;
  std::vector<bool> ordered_;  // size_ × size_, row = from
  size_t verdicts_consulted_ = 0;
  size_t certificates_consulted_ = 0;
};

/// The same-variable pair classifier. Visits every pair i < j of
/// `statements` on one tree variable with at least one update, in (i, j)
/// order, and orders it when
///  - either update is malformed (`ops`, the statement model) — kMalformed;
///  - both are updates and CertifyUpdatesCommute, under the engine's
///    detector options, fails or is not kCertified — kUpdatePair;
///  - it is a read/update pair and its verdict is an error, kConflict or
///    kUnknown — kError / kConflict / kUnknown.
/// Everything else, reads on one variable and pairs on different
/// variables included, is independent. The read/update pairs are solved
/// in one DetectPairs call on `batch`; a pair with a malformed update is
/// neither solved nor certified. `ops` must be
/// BindStatements(statements, batch.pattern_store()).
DependenceGraph BuildDependenceGraph(const std::vector<Statement>& statements,
                                     const std::vector<Result<UpdateOp>>& ops,
                                     BatchConflictDetector& batch);

/// Read CSE: result[j] is the read statement j may alias — the earliest
/// read i < j on the same variable with an identical pattern, with no
/// update k in (i, j) ordered before j. Reads aliased already, in the
/// program or earlier in this selection, neither alias nor are aliased.
/// Empty for statements that keep their own evaluation.
std::vector<std::optional<size_t>> SelectReadAliases(
    const std::vector<Statement>& statements, const DependenceGraph& graph);

/// Wavefront levels of a DAG whose edges all point forward (any order):
/// level[i] is the longest edge path ending at node i, batches[k] lists
/// the level-k nodes in index order, and nodes sharing a batch have no edge
/// between them. Nodes marked in `excluded` join no batch; edges touching
/// them must already be gone.
struct Wavefronts {
  std::vector<size_t> level;
  std::vector<std::vector<size_t>> batches;
  /// Largest batch: the achievable parallel width.
  size_t width = 0;
};
Wavefronts ComputeWavefronts(size_t size,
                             const std::vector<DependenceEdge>& edges,
                             const std::vector<char>& excluded = {});

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_DEPENDENCE_GRAPH_H_
