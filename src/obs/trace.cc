#include "obs/trace.h"

#include <algorithm>
#include <map>

namespace xmlup {
namespace obs {
namespace {

std::atomic<uint32_t> next_thread_id{0};  // concurrency-ok: atomic id mint

/// Per-thread span nesting depth; TraceSpan maintains it even while the
/// recorder is enabled mid-stack so depths stay consistent.
thread_local uint32_t tls_span_depth = 0;

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
}

}  // namespace

uint32_t CurrentThreadId() {
  // ordering: relaxed — the fetch_add only needs to mint unique ids;
  // nothing else is published through the counter.
  thread_local const uint32_t id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t TraceRecorder::NowMicros() const {
  // Race fix (found in the concurrency-layer audit): test_clock_ used to
  // be read here without the lock while SetClockForTest wrote it under
  // it — a genuine data race on the std::function if a test installed a
  // clock while another thread held an open span. NowMicros is only
  // reached when the recorder is enabled (TraceSpan checks first), so the
  // lock is off the disabled fast path entirely.
  {
    MutexLock lock(mu_);
    if (test_clock_) return test_clock_();
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::Record(const TraceEvent& event) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  events_.push_back(event);
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  MutexLock lock(mu_);
  return events_;
}

void TraceRecorder::Clear() {
  MutexLock lock(mu_);
  events_.clear();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::vector<TraceEvent> events = Snapshot();
  // Stable presentation: viewers sort internally, but a deterministic file
  // is diffable and golden-testable.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     return a.depth < b.depth;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, e.name);
    out += "\",\"cat\":\"xmlup\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(e.start_us);
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(e.depth);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceRecorder::ToStatsJson() const {
  struct Agg {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : Snapshot()) {
    Agg& agg = by_name[e.name];
    ++agg.count;
    agg.total_us += e.dur_us;
    agg.max_us = std::max(agg.max_us, e.dur_us);
  }
  std::string out = "{\"spans\":{";
  bool first = true;
  for (const auto& [name, agg] : by_name) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(&out, name.c_str());
    out += "\":{\"count\":";
    out += std::to_string(agg.count);
    out += ",\"total_us\":";
    out += std::to_string(agg.total_us);
    out += ",\"max_us\":";
    out += std::to_string(agg.max_us);
    out += "}";
  }
  out += "}}";
  return out;
}

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::SetClockForTest(std::function<uint64_t()> now_us) {
  MutexLock lock(mu_);
  test_clock_ = std::move(now_us);
}

TraceSpan::TraceSpan(TraceRecorder& recorder, const char* name)
    : name_(name) {
  if (recorder.enabled()) {
    recorder_ = &recorder;
    start_us_ = recorder.NowMicros();
    depth_ = tls_span_depth;
  }
  ++tls_span_depth;
}

TraceSpan::TraceSpan(const char* name)
    : TraceSpan(TraceRecorder::Default(), name) {}

TraceSpan::~TraceSpan() {
  --tls_span_depth;
  if (recorder_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.start_us = start_us_;
  event.dur_us = recorder_->NowMicros() - start_us_;
  event.tid = CurrentThreadId();
  event.depth = depth_;
  recorder_->Record(event);
}

}  // namespace obs
}  // namespace xmlup
