#include "conflict/batch_detector.h"

#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlup {
namespace {

/// Batch-engine observability: pair traffic (a "hit" is a pair deduped
/// onto an identical pair of the same call) and job counts.
struct BatchMetrics {
  obs::Counter& pairs_total;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;

  static const BatchMetrics& Get() {
    static const BatchMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return new BatchMetrics{
          reg.GetCounter("batch.pairs_total"),
          reg.GetCounter("batch.cache_hits"),
          reg.GetCounter("batch.cache_misses"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

BatchConflictDetector::BatchConflictDetector(BatchDetectorOptions options)
    : options_(std::move(options)) {
  store_ = options_.store != nullptr
               ? options_.store
               : std::make_shared<PatternStore>(nullptr);
  const size_t threads = options_.num_threads == 0
                             ? ThreadPool::DefaultThreadCount()
                             : options_.num_threads;
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectMatrix(
    const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates) {
  std::vector<ReadUpdatePair> pairs;
  pairs.reserve(reads.size() * updates.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      pairs.push_back({i, j});
    }
  }
  return DetectPairs(reads, updates, pairs);
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectMatrix(
    const std::vector<PatternRef>& reads,
    const std::vector<UpdateOp>& updates) {
  std::vector<ReadUpdatePair> pairs;
  pairs.reserve(reads.size() * updates.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    for (size_t j = 0; j < updates.size(); ++j) {
      pairs.push_back({i, j});
    }
  }
  return DetectPairs(reads, updates, pairs);
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectPairs(
    const std::vector<Pattern>& reads, const std::vector<UpdateOp>& updates,
    const std::vector<ReadUpdatePair>& pairs) {
  // Intern-on-entry compatibility path. Interning is the only
  // canonicalization cost left, paid once per distinct pattern over the
  // *store's* lifetime — a pattern seen in an earlier call costs one code
  // build and a hash probe here, never a re-minimization.
  obs::TraceSpan span("batch.intern_reads");
  std::vector<PatternRef> read_refs(reads.size());
  ParallelFor(pool_.get(), reads.size(), [&](size_t i) {
    read_refs[i] = store_->Intern(reads[i]);
  });
  return DetectPairs(read_refs, updates, pairs);
}

std::vector<SharedConflictResult> BatchConflictDetector::DetectPairs(
    const std::vector<PatternRef>& reads, const std::vector<UpdateOp>& updates,
    const std::vector<ReadUpdatePair>& pairs) {
  // Single-caller tripwire (see active_calls_ in the header). RAII so the
  // count unwinds on every exit path.
  struct CallScope {
    explicit CallScope(std::atomic<int>& count) : count_(count) {
      // ordering: relaxed — a diagnostic counter, not synchronization; the
      // DCHECK turns a silent cross-thread overlap into a crash with a
      // message, and a racy interleaving it happens to miss was still a
      // contract violation TSan reports on stats_ itself.
      XMLUP_DCHECK(count_.fetch_add(1, std::memory_order_relaxed) == 0)
          << "BatchConflictDetector is single-caller: two threads are "
             "inside DetectPairs/DetectMatrix at once. Route concurrent "
             "batch work through Engine (which serializes on batch_mu_) "
             "or give each thread its own engine.";
    }
    // ordering: relaxed — see above.
    ~CallScope() { count_.fetch_sub(1, std::memory_order_relaxed); }
    std::atomic<int>& count_;
  } call_scope(active_calls_);
  const BatchMetrics& metrics = BatchMetrics::Get();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  obs::TraceSpan batch_span(recorder, "BatchDetectPairs");
  stats_.pairs_total += pairs.size();
  metrics.pairs_total.Increment(pairs.size());

  // Phase 1 — bind every update to the store once, in parallel (reads
  // arrive as refs; Bind returns an op already bound here unchanged). The
  // store memoizes minimization and canonical codes across calls, so this
  // phase does real work only for patterns the engine has never seen, and
  // each job's Detect then takes the compiled path on the bound op.
  const size_t n_reads = reads.size();
  const size_t n_updates = updates.size();
  std::vector<std::optional<UpdateOp>> bound(n_updates);
  std::vector<uint32_t> content_ids(n_updates, 0);
  {
    obs::TraceSpan phase_span(recorder, "batch.canonicalize");
    ParallelFor(pool_.get(), n_updates, [&](size_t j) {
      bound[j] = updates[j].Bind(store_);
      if (updates[j].kind() == UpdateOp::Kind::kInsert) {
        content_ids[j] = store_->InternContentCode(updates[j].content());
      }
    });
  }

  // Phase 2 — dedup the call's pairs (sequential, in pair order, so job
  // creation order is deterministic). Keys are integer tuples of store ids:
  // building one is four register writes, probing the map one integer
  // hash. Nothing outlives the call.
  struct Job {
    size_t read_index;
    size_t update_index;
    SharedConflictResult result;
  };
  std::vector<Job> jobs;
  std::unordered_map<BatchPairKey, size_t, BatchPairKeyHash> job_by_key;
  // job_of[k] is the job that answers pairs[k].
  std::vector<size_t> job_of(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    const size_t i = pairs[k].read_index;
    const size_t j = pairs[k].update_index;
    XMLUP_CHECK(i < n_reads && j < n_updates);
    const BatchPairKey key{reads[i].id(), bound[j]->pattern_ref().id(),
                           content_ids[j],
                           static_cast<uint8_t>(updates[j].kind())};
    auto [it, inserted] = job_by_key.emplace(key, jobs.size());
    if (inserted) jobs.push_back({i, j, nullptr});
    job_of[k] = it->second;
  }
  const uint64_t hits_this_call = pairs.size() - jobs.size();
  stats_.cache_hits += hits_this_call;
  stats_.cache_misses += jobs.size();
  metrics.cache_hits.Increment(hits_this_call);
  metrics.cache_misses.Increment(jobs.size());
  XMLUP_CHECK(stats_.cache_hits + stats_.cache_misses == stats_.pairs_total);

  // Phase 3 — solve every job on the pool against the store's
  // pre-minimized forms, Stage 0 included. Each job writes only its own
  // slot, so the result layout is independent of scheduling.
  {
    obs::TraceSpan phase_span(recorder, "batch.solve");
    ParallelFor(pool_.get(), jobs.size(), [&](size_t index) {
      Job& job = jobs[index];
      obs::TraceSpan job_span(recorder, "batch.solve_pair");
      job.result = std::make_shared<const Result<ConflictReport>>(
          Detect(*store_, reads[job.read_index], *bound[job.update_index],
                 options_.detector));
    });
  }

  // Phase 4 — scatter the shared results to every requesting pair.
  std::vector<SharedConflictResult> out(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) out[k] = jobs[job_of[k]].result;
  return out;
}

}  // namespace xmlup
