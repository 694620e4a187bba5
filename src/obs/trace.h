#ifndef XMLUP_OBS_TRACE_H_
#define XMLUP_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace xmlup {
namespace obs {

/// One completed span. Timestamps are microseconds since the recorder's
/// epoch (its construction, unless a test clock is installed).
struct TraceEvent {
  const char* name = "";  // must be a string literal / static storage
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  uint32_t tid = 0;   // small stable per-thread id, assigned on first use
  uint32_t depth = 0;  // span nesting depth on that thread at open time
};

/// Stable small integer id for the calling thread (0 for the first thread
/// that asks, 1 for the second, ...). Used instead of std::thread::id so
/// trace exports are compact and goldens are deterministic for
/// single-threaded recordings.
uint32_t CurrentThreadId();

/// Captures nested spans from many threads and exports them as Chrome
/// trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev)
/// plus a flat per-span-name stats JSON.
///
/// The recorder is *runtime-disabled by default*: until set_enabled(true),
/// opening a span reads one relaxed atomic and does nothing else, so
/// instrumented code pays ~nothing in production. When enabled, Record()
/// appends under a mutex — instrumentation is expected at operation
/// granularity (a detector call, a search, a batch job), not inside
/// per-node loops. Spans on pool workers record like any other.
class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const {
    // ordering: relaxed — an independent on/off flag; a span racing the
    // toggle is either recorded or skipped, both acceptable outcomes.
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    // ordering: relaxed — see enabled().
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (or the test clock's value).
  uint64_t NowMicros() const;

  /// Appends one completed span (thread-safe). No-op when disabled.
  void Record(const TraceEvent& event);

  std::vector<TraceEvent> Snapshot() const;

  /// Drops recorded events (enabled flag and clock are kept).
  void Clear();

  /// Chrome trace_event format: {"traceEvents":[{"name":...,"ph":"X",
  /// "ts":...,"dur":...,"pid":1,"tid":...},...]}.
  std::string ToChromeTraceJson() const;

  /// Flat per-name aggregation: {"spans":{name:{"count":..,
  /// "total_us":..,"max_us":..}}}.
  std::string ToStatsJson() const;

  /// Process-wide recorder, disabled until someone turns it on (benches
  /// and the CLI do; library code only ever writes through it).
  static TraceRecorder& Default();

  /// Replaces the wall clock with a deterministic one (golden tests).
  /// Pass nullptr to restore the real clock.
  void SetClockForTest(std::function<uint64_t()> now_us);

 private:
  std::atomic<bool> enabled_{false};
  /// Set once in the constructor, const thereafter — lock-free to read.
  std::chrono::steady_clock::time_point epoch_;
  /// Guards the event buffer and the test clock. Leaf lock: Record /
  /// Snapshot / NowMicros never call out while holding it.
  mutable Mutex mu_;
  std::function<uint64_t()> test_clock_ XMLUP_GUARDED_BY(mu_);
  std::vector<TraceEvent> events_ XMLUP_GUARDED_BY(mu_);
};

/// RAII span: opens on construction, records on destruction. Does nothing
/// when the recorder is disabled (one relaxed load). `name` must have
/// static storage duration (string literals).
class TraceSpan {
 public:
  TraceSpan(TraceRecorder& recorder, const char* name);
  /// Records into TraceRecorder::Default().
  explicit TraceSpan(const char* name);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  TraceRecorder* recorder_ = nullptr;  // null when disabled at open
  const char* name_;
  uint64_t start_us_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace obs
}  // namespace xmlup

#endif  // XMLUP_OBS_TRACE_H_
