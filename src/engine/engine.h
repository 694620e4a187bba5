#ifndef XMLUP_ENGINE_ENGINE_H_
#define XMLUP_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dependence.h"
#include "analysis/lint.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "conflict/batch_detector.h"
#include "conflict/conflict_matrix.h"
#include "conflict/detector.h"
#include "conflict/update_independence.h"
#include "dtd/dtd.h"
#include "obs/metrics.h"
#include "pattern/pattern_store.h"
#include "xml/symbol_table.h"

namespace xmlup {

/// Configuration of an Engine. One engine = one configuration: the
/// detector options are fixed at construction, so every call through the
/// engine answers a pattern pair the same way. Callers that need a second
/// semantics build a second Engine (they can share a SymbolTable).
struct EngineOptions {
  /// Detector semantics/budget and worker threads for the matrix engine.
  /// `batch.store` and `batch.detector.dtd` are ignored — the Engine owns
  /// the store wiring (one minimizing store) and takes its schema from
  /// `dtd` below.
  BatchDetectorOptions batch;
  /// Schema for the Stage 0 type-pruning filter, copied into the detector
  /// options of every layer the engine owns — single-pair Detect, the
  /// matrix engine, sessions, dependence analysis, and Lint (Stage 0 and
  /// its dtd-violation pass). Must share the engine's SymbolTable
  /// (CHECK-failed at construction). Detection then becomes conservative
  /// under the schema: pairs with disjoint type footprints resolve to
  /// kNoConflict (method kTypePruned) before any matching work — see
  /// DetectorOptions::dtd.
  std::shared_ptr<const Dtd> dtd;
};

/// The front door of the library: one object owning the shared state every
/// layer below needs — the SymbolTable, the PatternStore (interned
/// canonical patterns + compiled forms) and the batch conflict-matrix
/// engine — and exposing the library's operations as
/// methods: Detect, DetectMatrix, MakeSession, Lint, AnalyzeDependences,
/// CertifyCommute.
///
/// Before this facade each binary wired those pieces by hand (make a
/// table, make a store over it, make a batch engine over the store, keep
/// all three alive in the right order); the workload driver, the lint CLI
/// and all examples now construct exactly one Engine. The layer APIs
/// underneath (free Detect, BatchConflictDetector, Linter, ...) remain
/// public and supported — the facade is wiring, not a wall.
///
/// Thread safety (the annotated contract; a Clang -Wthread-safety build
/// enforces the field accesses, and the lock-discipline rules are spelled
/// out in DESIGN "Concurrency model"):
///   - Detect / CertifyCommute / Intern / Bind / InternXPath are safe to
///     call from any number of threads concurrently (they ride the store's
///     internal locks and the lock-free compiled caches). This is the
///     driver's hot path; it never touches batch_mu_.
///   - DetectMatrix / DetectPairs / Lint / AnalyzeDependences serialize on
///     batch_mu_ (one single-caller matrix engine and dependence
///     analyzer, whose pool and stats are not shared-safe); each call still
///     parallelizes internally on the engine's pool. Because they block on
///     that pool, they must NOT be invoked from inside any ThreadPool
///     worker — doing so can deadlock the pool, so these entry points
///     CHECK-fail on re-entrant use from a worker thread.
///   - A Session is single-writer (as MaintainedConflictMatrix is), but
///     distinct sessions may be driven from distinct threads concurrently:
///     each session owns a private inline matrix engine over the shared
///     store, so sessions share interned patterns and compiled forms
///     and nothing mutable.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Shares an existing SymbolTable (e.g. with another Engine or with
  /// trees parsed before the engine existed). `symbols` may be null.
  explicit Engine(std::shared_ptr<SymbolTable> symbols,
                  EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }
  const std::shared_ptr<PatternStore>& store() const { return store_; }
  const DetectorOptions& detector_options() const {
    return options_.batch.detector;
  }

  /// --- Interning ---

  /// Interns a pattern into the engine's store (minimize + canonical code
  /// once per distinct pattern). Thread-safe.
  PatternRef Intern(const Pattern& pattern);
  /// Parses the paper's XPath fragment against the engine's SymbolTable
  /// and interns the result.
  Result<PatternRef> InternXPath(std::string_view xpath);
  /// The stored canonical form backing a ref.
  const Pattern& pattern(PatternRef ref) const;

  /// A copy of `op` bound to the engine's store (pattern interned, ref
  /// recorded) — pre-bind updates once, then Detect against refs on the
  /// integer-keyed hot path.
  UpdateOp Bind(const UpdateOp& op) const;

  /// --- Single-pair detection (thread-safe hot path) ---

  /// Unified read/update conflict detection under the engine's options.
  /// The ref overload runs on the store's compiled forms — no per-call
  /// canonicalization or compilation.
  Result<ConflictReport> Detect(PatternRef read, const UpdateOp& update) const;
  Result<ConflictReport> Detect(const Pattern& read,
                                const UpdateOp& update) const;

  /// Update/update commutativity certificate (§6).
  Result<IndependenceReport> CertifyCommute(const UpdateOp& a,
                                            const UpdateOp& b) const;

  /// --- Batched detection (serialized on the shared matrix engine) ---

  /// Full N×M matrix / sparse pair set, each distinct pair of a call
  /// solved once. Layout and determinism guarantees are
  /// BatchConflictDetector's.
  std::vector<SharedConflictResult> DetectMatrix(
      const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates)
      XMLUP_EXCLUDES(batch_mu_);
  std::vector<SharedConflictResult> DetectMatrix(
      const std::vector<PatternRef>& reads,
      const std::vector<UpdateOp>& updates) XMLUP_EXCLUDES(batch_mu_);
  std::vector<SharedConflictResult> DetectPairs(
      const std::vector<PatternRef>& reads,
      const std::vector<UpdateOp>& updates,
      const std::vector<ReadUpdatePair>& pairs) XMLUP_EXCLUDES(batch_mu_);

  /// --- Sessions ---

  /// A client session: an editable conflict matrix (the per-session state
  /// of a program being edited statement by statement) over the engine's
  /// shared PatternStore. Session edits are single-writer; distinct
  /// sessions are concurrency-safe against each other and against the
  /// engine's own Detect/DetectMatrix calls.
  class Session {
   public:
    MaintainedConflictMatrix& matrix() { return matrix_; }
    const MaintainedConflictMatrix& matrix() const { return matrix_; }

   private:
    friend class Engine;
    explicit Session(std::shared_ptr<BatchConflictDetector> engine)
        : matrix_(std::move(engine)) {}
    MaintainedConflictMatrix matrix_;
  };

  /// Creates a session whose matrix engine shares the Engine's store (and
  /// detector options) and runs inline on the session's calling thread —
  /// the right setting when many sessions run on driver/service worker
  /// threads.
  std::unique_ptr<Session> MakeSession() const;

  /// --- Program analysis ---

  struct LintRunOptions {
    /// Run the parallel-safety partitioner.
    bool partition = true;
  };

  /// Lints a straight-line update program with the engine's detector
  /// configuration, its schema included. Serialized on the engine mutex.
  /// Each call builds a
  /// fresh Linter, so verdicts are solved per call (each distinct pair
  /// once); only the shared store — interned patterns and compiled forms
  /// — stays warm across calls.
  LintResult Lint(const Program& program, const LintRunOptions& run)
      XMLUP_EXCLUDES(batch_mu_);
  LintResult Lint(const Program& program) {
    return Lint(program, LintRunOptions());
  }

  /// Pairwise data-dependence analysis over a program (the §1 compiler
  /// scenario). Serialized on the engine mutex; the analyzer is built once
  /// and keeps only the shared store between calls.
  DependenceAnalysisResult AnalyzeDependences(const Program& program)
      XMLUP_EXCLUDES(batch_mu_);

  /// --- Observability / escape hatches ---

  /// Snapshot of the process-wide metrics registry the stack reports into.
  obs::MetricsSnapshot MetricsSnapshot() const;
  /// Cumulative pair/dedup counters of the shared matrix engine.
  BatchStats batch_stats() const;
  /// The shared matrix engine. Callers taking this accept its
  /// single-caller-at-a-time contract (the facade's DetectMatrix/Lint
  /// serialization no longer protects them).
  BatchConflictDetector& batch() { return *batch_; }

 private:
  /// CHECK-fails when called from a ThreadPool worker: every serialized
  /// entry point blocks on the engine's pool, and blocking a worker on
  /// work only workers can drain deadlocks the pool.
  void CheckNotOnPoolWorker(const char* entry_point) const;

  /// All four members below are set in the constructor and const
  /// thereafter (the shared_ptrs are never re-seated); the *pointees*
  /// carry their own locks. batch_'s single-caller contract is what
  /// batch_mu_ exists for.
  EngineOptions options_;
  std::shared_ptr<SymbolTable> symbols_;
  std::shared_ptr<PatternStore> store_;
  std::shared_ptr<BatchConflictDetector> batch_;
  /// Serializes DetectMatrix/DetectPairs/Lint/AnalyzeDependences over the
  /// shared single-caller components. Lock-ordering rule: batch_mu_ is
  /// acquired before any lock below it (the store mutex, shard mutexes,
  /// the pool mutex) and never the other way around — no code path that
  /// holds a lower-layer lock calls back into the Engine.
  Mutex batch_mu_;
  /// Lazily built on first AnalyzeDependences.
  std::unique_ptr<DependenceAnalyzer> dependence_ XMLUP_GUARDED_BY(batch_mu_);
};

}  // namespace xmlup

#endif  // XMLUP_ENGINE_ENGINE_H_
