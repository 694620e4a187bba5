#ifndef XMLUP_CONFLICT_CONFLICT_MATRIX_H_
#define XMLUP_CONFLICT_CONFLICT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "conflict/batch_detector.h"

namespace xmlup {

/// Cumulative delta accounting for a maintained matrix: what each edit
/// cost relative to the from-scratch alternative. "Recomputed" counts
/// cells *requested from the batch engine*; the engine solves each
/// distinct pair of an edit's row or column once, so the detector-job cost
/// of an edit is bounded by the recomputed count and below it when the
/// slice repeats patterns (see BatchStats for the solve-level truth).
struct DeltaStats {
  /// Edit operations applied (Assign counts as one).
  uint64_t edits = 0;
  /// Cells present before and after an edit, untouched by it.
  uint64_t cells_reused = 0;
  /// Cells (re)computed via the batch engine.
  uint64_t cells_recomputed = 0;
  /// Cells discarded (removed rows/columns and replaced cells).
  uint64_t cells_dropped = 0;
};

/// A maintained N×M read/update conflict matrix — the paper's §1 compiler
/// use case made *incremental*. Where BatchConflictDetector answers one
/// matrix request, MaintainedConflictMatrix holds the current reads and
/// updates plus their verdict cells and offers edit operations that
/// recompute only the affected row or column:
///
///   AddRead / ReplaceRead       → M engine requests (one row)
///   AddUpdate / ReplaceUpdate   → N engine requests (one column)
///   RemoveRead / RemoveUpdate   → 0 engine requests
///
/// so a single edit costs at most max(N, M) detector jobs — fewer when
/// the row or column repeats a pattern, because the engine dedups each
/// call on BatchPairKey. When the engine's detector carries a Dtd, the
/// Detect facade's Stage 0 type filter answers schema-disjoint cells
/// (method kTypePruned) before any matching work, and the maintained
/// matrix inherits that for free. Cells the edit did not touch are kept,
/// not re-requested; nothing else survives between edits, so a cell a
/// later edit replaces is released with it.
///
/// Determinism: cells carry the batch engine's guarantee (verdict, method,
/// trees_checked independent of thread count and scheduling), and the
/// maintained matrix is always cell-for-cell equal to a from-scratch
/// DetectMatrix over the current reads/updates.
///
/// Indices are stable under Add (append) and Replace; Remove shifts later
/// rows/columns down by one, mirroring statement deletion in a program.
/// Not thread-safe: one writer at a time (the engine underneath still
/// parallelizes each recompute internally).
///
/// Observability: edits ride MetricsRegistry::Default() as the matrix.*
/// counters (edits, cells_reused, cells_recomputed, cells_dropped) and
/// emit one trace span per edit (matrix.add_read, matrix.replace_update,
/// ...).
class MaintainedConflictMatrix {
 public:
  /// Builds an empty matrix over a private engine with these options.
  explicit MaintainedConflictMatrix(BatchDetectorOptions options = {});
  /// Builds an empty matrix over a shared engine (its store is reused;
  /// `engine` must be non-null).
  explicit MaintainedConflictMatrix(
      std::shared_ptr<BatchConflictDetector> engine);

  /// Replaces the whole matrix (one edit: every previous cell drops, every
  /// new cell is requested in one engine call).
  void Assign(const std::vector<Pattern>& reads,
              const std::vector<UpdateOp>& updates);

  /// Appends a read row / update column; returns its index.
  size_t AddRead(const Pattern& read);
  size_t AddUpdate(const UpdateOp& update);

  /// Removes a row / column; later indices shift down by one.
  void RemoveRead(size_t read_index);
  void RemoveUpdate(size_t update_index);

  /// Swaps in a new pattern/op at an existing index and recomputes exactly
  /// that row / column.
  void ReplaceRead(size_t read_index, const Pattern& read);
  void ReplaceUpdate(size_t update_index, const UpdateOp& update);

  size_t num_reads() const { return reads_.size(); }
  size_t num_updates() const { return updates_.size(); }

  /// The current verdict cell; never null. References are invalidated by
  /// the next edit.
  const SharedConflictResult& cell(size_t read_index,
                                   size_t update_index) const;

  /// Row-major snapshot, same layout as BatchConflictDetector::
  /// DetectMatrix(reads, updates) over the current contents.
  std::vector<SharedConflictResult> RowMajor() const;

  /// One row (all cells of a read) / one column (all cells of an update)
  /// — what an edit-stream consumer tallies after ReplaceRead/
  /// ReplaceUpdate recomputed exactly that slice. References are
  /// invalidated by the next edit.
  std::vector<SharedConflictResult> row(size_t read_index) const;
  std::vector<SharedConflictResult> column(size_t update_index) const;

  /// The interned ref / bound op backing a row / column (refs belong to
  /// engine().pattern_store()).
  PatternRef read_ref(size_t read_index) const;
  const UpdateOp& update(size_t update_index) const;

  const DeltaStats& delta_stats() const { return delta_; }
  BatchConflictDetector& engine() const { return *engine_; }
  const std::shared_ptr<BatchConflictDetector>& shared_engine() const {
    return engine_;
  }

 private:
  /// One row (the given read against every current update) / one column
  /// (every current read against the given update) via the engine.
  std::vector<SharedConflictResult> SolveRow(PatternRef read) const;
  std::vector<SharedConflictResult> SolveColumn(const UpdateOp& update) const;

  void RecordEdit(uint64_t reused, uint64_t recomputed, uint64_t dropped);

  std::shared_ptr<BatchConflictDetector> engine_;
  std::vector<PatternRef> reads_;
  /// Bound to the engine's store (Bind amortizes canonicalization).
  std::vector<UpdateOp> updates_;
  /// cells_[i][j] is the verdict for (reads_[i], updates_[j]).
  std::vector<std::vector<SharedConflictResult>> cells_;
  DeltaStats delta_;
};

}  // namespace xmlup

#endif  // XMLUP_CONFLICT_CONFLICT_MATRIX_H_
