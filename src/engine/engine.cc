#include "engine/engine.h"

#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "pattern/xpath_parser.h"

namespace xmlup {
namespace {

std::shared_ptr<SymbolTable> OrFresh(std::shared_ptr<SymbolTable> symbols) {
  return symbols != nullptr ? std::move(symbols)
                            : std::make_shared<SymbolTable>();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : Engine(std::make_shared<SymbolTable>(), std::move(options)) {}

Engine::Engine(std::shared_ptr<SymbolTable> symbols, EngineOptions options)
    : options_(std::move(options)), symbols_(OrFresh(std::move(symbols))) {
  store_ = std::make_shared<PatternStore>(symbols_);
  options_.batch.store = store_;
  if (options_.dtd != nullptr) {
    XMLUP_CHECK_STREAM(SameSymbolTable(symbols_, options_.dtd->symbols()))
        << "EngineOptions::dtd was parsed against a different SymbolTable "
           "than this engine's. Labels are only comparable within one "
           "table; parse the DTD with the engine's table.";
    // The engine owns the shared_ptr, so the raw pointer every layer below
    // holds stays valid for the engine's lifetime (the store caches type
    // summaries keyed by this address).
    options_.batch.detector.dtd = options_.dtd.get();
  }
  batch_ = std::make_shared<BatchConflictDetector>(options_.batch);
}

PatternRef Engine::Intern(const Pattern& pattern) {
  return store_->Intern(pattern);
}

Result<PatternRef> Engine::InternXPath(std::string_view xpath) {
  Result<Pattern> pattern = ParseXPath(xpath, symbols_);
  if (!pattern.ok()) return pattern.status();
  return store_->Intern(*pattern);
}

const Pattern& Engine::pattern(PatternRef ref) const {
  return store_->pattern(ref);
}

UpdateOp Engine::Bind(const UpdateOp& op) const { return op.Bind(store_); }

Result<ConflictReport> Engine::Detect(PatternRef read,
                                      const UpdateOp& update) const {
  // Ops not bound to this store are bound into a call-local store by the
  // facade below; pre-binding (Engine::Bind) keeps this integer-keyed.
  return xmlup::Detect(*store_, read, update, options_.batch.detector);
}

Result<ConflictReport> Engine::Detect(const Pattern& read,
                                      const UpdateOp& update) const {
  return xmlup::Detect(*store_, store_->Intern(read), update,
                       options_.batch.detector);
}

Result<IndependenceReport> Engine::CertifyCommute(const UpdateOp& a,
                                                  const UpdateOp& b) const {
  return CertifyUpdatesCommute(a, b, options_.batch.detector);
}

void Engine::CheckNotOnPoolWorker(const char* entry_point) const {
  XMLUP_CHECK_STREAM(!ThreadPool::OnWorkerThread())
      << "Engine::" << entry_point
      << " called from inside a ThreadPool worker. The serialized entry "
         "points block on the engine's pool; re-entering them from a pool "
         "task deadlocks the pool. Issue them from a non-worker thread "
         "(the hot-path calls — Detect, CertifyCommute, Intern, Bind — "
         "remain safe anywhere).";
}

std::vector<SharedConflictResult> Engine::DetectMatrix(
    const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates) {
  CheckNotOnPoolWorker("DetectMatrix");
  MutexLock lock(batch_mu_);
  return batch_->DetectMatrix(reads, updates);
}

std::vector<SharedConflictResult> Engine::DetectMatrix(
    const std::vector<PatternRef>& reads,
    const std::vector<UpdateOp>& updates) {
  CheckNotOnPoolWorker("DetectMatrix");
  MutexLock lock(batch_mu_);
  return batch_->DetectMatrix(reads, updates);
}

std::vector<SharedConflictResult> Engine::DetectPairs(
    const std::vector<PatternRef>& reads, const std::vector<UpdateOp>& updates,
    const std::vector<ReadUpdatePair>& pairs) {
  CheckNotOnPoolWorker("DetectPairs");
  MutexLock lock(batch_mu_);
  return batch_->DetectPairs(reads, updates, pairs);
}

std::unique_ptr<Engine::Session> Engine::MakeSession() const {
  BatchDetectorOptions session_options = options_.batch;
  session_options.store = store_;
  session_options.num_threads = 1;
  auto engine = std::make_shared<BatchConflictDetector>(session_options);
  return std::unique_ptr<Session>(new Session(std::move(engine)));
}

LintResult Engine::Lint(const Program& program, const LintRunOptions& run) {
  LintOptions lint_options;
  lint_options.batch = options_.batch;
  lint_options.batch.store = store_;
  // Per-call schema wins; otherwise the engine's configured schema drives
  // the lint dtd-violation pass too (one engine = one schema).
  lint_options.dtd = run.dtd != nullptr ? run.dtd : options_.dtd.get();
  lint_options.partition = run.partition;
  CheckNotOnPoolWorker("Lint");
  MutexLock lock(batch_mu_);
  // A fresh Linter per call over the shared store: interned patterns and
  // compiled forms stay warm, and the call solves each distinct pair once.
  const Linter linter(lint_options);
  return linter.Lint(program);
}

DependenceAnalysisResult Engine::AnalyzeDependences(const Program& program) {
  CheckNotOnPoolWorker("AnalyzeDependences");
  MutexLock lock(batch_mu_);
  if (dependence_ == nullptr) {
    BatchDetectorOptions dependence_options = options_.batch;
    dependence_options.store = store_;
    dependence_ = std::make_unique<DependenceAnalyzer>(dependence_options);
  }
  return dependence_->Analyze(program);
}

obs::MetricsSnapshot Engine::MetricsSnapshot() const {
  return obs::MetricsRegistry::Default().Snapshot();
}

BatchStats Engine::batch_stats() const { return batch_->stats(); }

}  // namespace xmlup
