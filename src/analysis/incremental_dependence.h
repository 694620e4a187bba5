#ifndef XMLUP_ANALYSIS_INCREMENTAL_DEPENDENCE_H_
#define XMLUP_ANALYSIS_INCREMENTAL_DEPENDENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/dependence.h"
#include "analysis/program.h"
#include "conflict/conflict_matrix.h"

namespace xmlup {

/// Dependence analysis for *evolving* programs — the incremental face of
/// DependenceAnalyzer. The compiler edits a statement (inserts one,
/// deletes one, rewrites a pattern) and wants the refreshed dependence /
/// independent-pair information without re-solving the whole read×update
/// conflict matrix.
///
/// The analyzer keeps every read statement as a row and every well-formed
/// update statement as a column of a MaintainedConflictMatrix, so a
/// single-statement edit triggers at most one row or column recompute
/// (≤ max(#reads, #updates) batch-engine requests, one solve per distinct
/// pair among them); every other cell is kept from earlier edits.
/// Update/update commutativity certificates run on the matrix's bound ops
/// and are memoized on their (ref, content, kind) pairs, so each distinct
/// update pair is certified once per analyzer lifetime.
///
/// Analyze() feeds the maintained cells and the memoized certificates to
/// the shared pair classifier (analysis/dependence_graph.h), so it agrees
/// dependence-for-dependence with DependenceAnalyzer::Analyze on the
/// equivalent Program (the oracle property the tests enforce). Statement
/// indices follow program order; Remove/Insert shift later statements like
/// a text edit would.
///
/// Cross-variable note: the matrix holds a cell for *every* read/update
/// statement pair, including pairs on different tree variables whose
/// verdict the classification never consults (they are independent by
/// definition). That keeps edit cost a clean row/column and lets one
/// matrix serve any variable mix; single-variable programs — the common
/// compiler shape — waste nothing.
class IncrementalDependenceAnalyzer {
 public:
  explicit IncrementalDependenceAnalyzer(DetectorOptions options = {});
  explicit IncrementalDependenceAnalyzer(BatchDetectorOptions options);

  /// Replaces the current statement list with `program` (bulk edit: one
  /// full matrix assign).
  void SetProgram(const Program& program);

  size_t size() const { return stmts_.size(); }
  const Statement& statement(size_t index) const;

  /// Program-edit API; `index` is a current statement position. Insert
  /// places the statement *before* index (index == size() appends).
  void InsertStatement(size_t index, const Statement& statement);
  void RemoveStatement(size_t index);
  void ReplaceStatement(size_t index, const Statement& statement);

  /// Analysis of the current statement list from the maintained state.
  /// Same result contract as DependenceAnalyzer::Analyze on the
  /// equivalent Program.
  DependenceAnalysisResult Analyze() const;

  /// The (i, j) statement pairs (i < j) proven independent — the §1
  /// reordering freedom, refreshed after each edit.
  std::vector<std::pair<size_t, size_t>> IndependentPairs() const;

  const MaintainedConflictMatrix& matrix() const { return matrix_; }
  const DeltaStats& delta_stats() const { return matrix_.delta_stats(); }

 private:
  /// Detaches the matrix row/column of statement `index` (shifting later
  /// slots), used by Remove/Replace.
  void DetachSlot(size_t index);
  /// Attaches statement `index`, already modeled in ops_, to the matrix
  /// (AddRead / AddUpdate).
  void AttachSlot(size_t index);
  /// The shared classifier over the maintained cells and the memoized
  /// certificates.
  DependenceGraph Graph() const;

  MaintainedConflictMatrix matrix_;
  std::vector<Statement> stmts_;
  /// The statement model (ToUpdateOp) of each statement; well-formed
  /// updates hold their matrix column's op, bound to the matrix's store.
  std::vector<Result<UpdateOp>> ops_;
  /// Matrix row of a read, column of a well-formed update; empty for a
  /// malformed update, which is conservatively dependent on everything
  /// sharing its variable.
  std::vector<std::optional<size_t>> slots_;
  /// Update/update certificates, keyed on the matrix store's (ref,
  /// content id, kind) of both bound ops in (earlier, later) order.
  mutable std::map<std::array<uint32_t, 6>, Result<IndependenceReport>>
      certificates_;
};

}  // namespace xmlup

#endif  // XMLUP_ANALYSIS_INCREMENTAL_DEPENDENCE_H_
