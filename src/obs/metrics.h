#ifndef XMLUP_OBS_METRICS_H_
#define XMLUP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace xmlup {
namespace obs {

/// Dependency-free metrics for the detector stack. Hot-path updates are
/// single relaxed atomic operations (lock-free, no allocation); reads go
/// through snapshot-on-read so a scrape never blocks an increment.
///
/// Metric objects are owned by a MetricsRegistry and live for the life of
/// the registry — call sites may cache `Counter&` references in function-
/// local statics, which makes the steady-state cost of a named counter one
/// atomic add.

/// All counter/gauge/histogram updates and reads below are
/// memory_order_relaxed by design: metrics are monotone statistics, not
/// synchronization. Nothing is published *through* a metric — readers
/// (Snapshot, the accounting-invariant tests) tolerate seeing a value a
/// few increments behind, and any cross-metric identity (calls == hits +
/// misses) is only asserted after the threads that wrote it were joined,
/// which supplies the happens-before edge the relaxed accesses omit.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    // ordering: relaxed — statistics only; see class comment.
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    // ordering: relaxed — statistics only; see class comment.
    return value_.load(std::memory_order_relaxed);
  }

  // ordering: relaxed — statistics only; see class comment.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) {
    // ordering: relaxed — statistics only; see Counter's class comment.
    value_.store(v, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    // ordering: relaxed — statistics only; see Counter's class comment.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t value() const {
    // ordering: relaxed — statistics only; see Counter's class comment.
    return value_.load(std::memory_order_relaxed);
  }

  // ordering: relaxed — statistics only; see Counter's class comment.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of one histogram, safe to serialize and diff. Also
/// the quantile-extraction surface: the workload driver snapshots a phase's
/// latency histogram and reads p50/p95/p99 off the copy.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Sparse: only non-empty buckets, as (inclusive upper bound, count).
  std::vector<std::pair<uint64_t, uint64_t>> buckets;

  /// Interpolated quantile for q in [0, 1]: the bucket holding rank
  /// q*count is located and the value linearly interpolated between the
  /// bucket's bounds (observations are assumed uniform within a bucket).
  /// For data uniform over [1, N] this is exact to within rounding; see
  /// obs_test for the pinned values. Returns 0 for an empty histogram and
  /// the tail bucket's lower bound when the rank lands in the unbounded
  /// tail. Total on every input: q outside [0, 1] (NaN included) clamps
  /// into the range, and data with no buckets — even with a nonzero
  /// count, as a racy DiffSince can produce — answers 0 rather than
  /// reading past the bucket list.
  double Quantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// Upper bound of the highest non-empty bucket (an upper estimate of the
  /// maximum observation; exact for bucket 0). 0 when empty.
  uint64_t MaxBound() const;

  /// The observations recorded in this snapshot but not in `before` (an
  /// earlier snapshot of the *same* histogram): counts subtract
  /// bucket-wise. The basis of per-phase snapshot diffing.
  HistogramData DiffSince(const HistogramData& before) const;
};

/// Exponential (power-of-two) histogram: bucket i counts observations v
/// with std::bit_width(v) == i, i.e. bucket 0 holds v == 0 and bucket
/// i >= 1 holds v in [2^(i-1), 2^i - 1]; the last bucket absorbs the tail.
/// 40 buckets cover ~12 days at microsecond resolution, plenty for latency
/// and size distributions alike.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  static size_t BucketIndex(uint64_t value) {
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket i (UINT64_MAX for the tail bucket).
  static uint64_t BucketUpperBound(size_t index);

  void Observe(uint64_t value) {
    // ordering: relaxed — statistics only (see Counter's class comment);
    // the three adds are not a consistent triple and Data() documents
    // that its copy is per-bucket atomic, not a cross-bucket cut.
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  // ordering: relaxed — statistics only; see Counter's class comment.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // ordering: relaxed — statistics only; see Counter's class comment.
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t index) const {
    // ordering: relaxed — statistics only; see Counter's class comment.
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Plain-data copy of the current state (sparse buckets), the input to
  /// Quantile/DiffSince. Safe under concurrent Observe calls; the copy is
  /// per-bucket atomic, not a cross-bucket consistent cut.
  HistogramData Data() const;

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of every registered metric. Plain data — safe to
/// serialize, diff, or ship across threads.
struct MetricsSnapshot {
  /// Alias kept from when this type was nested here; new code names
  /// obs::HistogramData directly.
  using HistogramData = obs::HistogramData;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// The activity between `before` (an earlier snapshot of the same
  /// registry) and this snapshot: counters and histogram buckets subtract;
  /// gauges are level values, not cumulative, so the diff carries this
  /// snapshot's value unchanged. Metrics registered after `before` diff
  /// against zero. This is what gives a workload phase its own counter
  /// deltas out of the process-wide registry.
  MetricsSnapshot DiffSince(const MetricsSnapshot& before) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count":..,"sum":..,"buckets":[[le,n],...]}}}
  std::string ToJson() const;
};

/// Named metric registry. Registration (first Get* for a name) takes a
/// mutex; subsequent updates through the returned reference are lock-free.
/// Returned references stay valid for the registry's lifetime — Reset()
/// zeroes values but never invalidates them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (registrations and cached references survive).
  void Reset();

  /// The process-wide registry the detector stack reports into. Never
  /// destroyed (intentionally leaked), so references are safe in atexit
  /// paths and detached threads.
  static MetricsRegistry& Default();

 private:
  /// Guards the name→metric maps (registration and snapshot); the metric
  /// values themselves are atomics updated without it. Leaf lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      XMLUP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      XMLUP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      XMLUP_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace xmlup

#endif  // XMLUP_OBS_METRICS_H_
