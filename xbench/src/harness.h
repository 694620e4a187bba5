#ifndef XBENCH_SRC_HARNESS_H_
#define XBENCH_SRC_HARNESS_H_

// Measurement plumbing shared by the three workloads: raw-sample
// percentiles, the benchmark's own spans, registry deltas over the timed
// ops, verdict tallies and the result report.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calibration.h"
#include "common/result.h"
#include "conflict/report.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace xbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed part: the summed latency of its ops.
  double seconds = 10;
  /// Traced run: spans on, per-layer metrics reported.
  bool trace = false;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Raw samples; every percentile is read off the sorted values, never off
/// histogram buckets.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  /// Samples that lie beyond the q-quantile: n - ceil(q * n).
  size_t Beyond(double q) const;

 private:
  std::vector<double> values_;
};

/// Spans the benchmark records around its own calls into the library's
/// layers. One client thread drives every workload, so spans nest as a
/// stack. Memory is bounded: spans past kMaxSpans are counted, not kept.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 2'000'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span named after a layer (a string literal); -1 when off.
  int Open(const char* layer);
  /// Closes span `id`, optionally renaming its layer (a Detect call is
  /// attributed to the stage that decided it once the report is known).
  void Close(int id, const char* layer = nullptr);

  struct LayerTime {
    uint64_t count = 0;
    int64_t total_ns = 0;
    /// Duration minus the part covered by child spans.
    int64_t self_ns = 0;
  };
  std::map<std::string, LayerTime> Layers() const;
  uint64_t dropped() const { return dropped_; }

  /// Writes every span and the per-layer table as one JSON object.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
    int32_t parent;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t dropped_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* layer)
      : tracer_(tracer), id_(tracer.Open(layer)) {}
  ~ScopedSpan() { tracer_.Close(id_, rename_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_layer(const char* layer) { rename_ = layer; }

 private:
  Tracer& tracer_;
  int id_;
  const char* rename_ = nullptr;
};

/// Registry deltas summed over disjoint windows. The registry is
/// process-wide, so set-up, warm-up, checks and attribution passes stay
/// out of the per-layer ratios only if each timed op is its own window.
class CounterWindow {
 public:
  void Begin();
  void End();
  uint64_t Counter(std::string_view name) const;

 private:
  xmlup::obs::MetricsSnapshot before_;
  std::map<std::string, uint64_t, std::less<>> counters_;
};

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);
/// hits / (hits + misses) of a registry counter pair.
double HitRate(const CounterWindow& window, std::string_view hits,
               std::string_view misses);

/// The timed part of a closed loop with one client: the summed time of the
/// primary ops and the registry deltas of exactly those ops. Input
/// preparation, output checks and host-speed samples run between ops and
/// stay outside both.
class TimedPart {
 public:
  /// A host-speed sample is taken after every this much timed op time.
  static constexpr int64_t kSampleEveryNs = 500'000'000;

  /// `rss_ops`: peak memory is read when that many ops have run, so it
  /// measures a fixed amount of work however fast the engine is.
  TimedPart(double seconds, size_t min_ops, size_t rss_ops, HostSpeed* host)
      : budget_ns_(static_cast<int64_t>(seconds * 1e9)),
        min_ops_(min_ops),
        rss_ops_(rss_ops),
        host_(host) {}

  /// Brackets one primary op; End returns its latency in microseconds.
  void Begin();
  double End();
  /// True once the budget is spent and at least min_ops ops ran.
  bool Expired() const { return elapsed_ns_ >= budget_ns_ && ops_ >= min_ops_; }

  size_t ops() const { return ops_; }
  double seconds() const { return static_cast<double>(elapsed_ns_) / 1e9; }
  /// Latency of every timed op, us.
  const Samples& op_us() const { return op_us_; }
  const CounterWindow& counters() const { return counters_; }
  /// Peak resident MiB after rss_ops ops (or now, if fewer ran).
  double PeakRssMb() const;

 private:
  int64_t budget_ns_;
  size_t min_ops_;
  size_t rss_ops_;
  HostSpeed* host_;
  int64_t next_sample_ns_ = 0;
  double rss_mb_ = -1;
  size_t ops_ = 0;
  int64_t elapsed_ns_ = 0;
  int64_t op_start_ns_ = 0;
  Samples op_us_;
  CounterWindow counters_;
};

/// Correctness of one Detect answer: no error, and a kConflict witness
/// that passes the Lemma 1 checker for the pair (every engine here builds
/// witnesses). Returns an empty string when correct.
std::string CheckDetect(const xmlup::Engine& engine, xmlup::PatternRef read,
                        const xmlup::UpdateOp& update,
                        const xmlup::Result<xmlup::ConflictReport>& result);

/// Engine::Detect inside a span named after the stage that decided it
/// (conflict, bounded_search or dtd).
xmlup::Result<xmlup::ConflictReport> TracedDetect(
    Tracer& tracer, const xmlup::Engine& engine, xmlup::PatternRef read,
    const xmlup::UpdateOp& update);

/// The benchmark's own Detect calls with the stage that decided each.
class DetectLog {
 public:
  void Add(const xmlup::Result<xmlup::ConflictReport>& result, double us);
  /// Share of calls decided by `method`.
  double Share(xmlup::DetectorMethod method) const;
  /// Median time of the calls decided by `method` (0 when none).
  double MedianUs(xmlup::DetectorMethod method) const;
  /// Summed time of `method` calls over summed time of all calls.
  double TimeShare(xmlup::DetectorMethod method) const;
  /// Bounded-search time per candidate tree it checked (0 when none).
  double SearchUsPerTree() const;

 private:
  struct Call {
    bool ok;
    xmlup::DetectorMethod method;
    double us;
    uint64_t trees;
  };
  std::vector<Call> calls_;
};

/// Ordered counts printed as one line; identical for a fixed seed.
class Tally {
 public:
  void Add(const std::string& key, uint64_t n = 1) { counts_[key] += n; }
  /// verdict.<name> and method.<name> of one Detect result.
  void AddVerdict(const std::string& prefix,
                  const xmlup::Result<xmlup::ConflictReport>& result);
  std::string ToString() const;

 private:
  std::map<std::string, uint64_t> counts_;
};

/// Peak resident memory of the process so far, MiB.
double PeakRssMb();

/// Collects the run's metrics and correctness verdict and prints them:
/// human-readable lines first, the result object as the last line.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  /// A human-readable line (never the last line of the output).
  void Note(const std::string& line);
  /// End-to-end metric: printed on every run, emitted by the untraced run.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// Per-layer metric: printed and emitted by the traced run only.
  void PerLayer(const std::string& name, double value,
                const std::string& unit);
  /// Prints "<label>: p50 .. us, p90 .., p99 .. us (n samples)"; p90 and
  /// p99 each only when at least 10 samples lie beyond it.
  void Timing(const std::string& label, const Samples& samples);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  /// Counts one failed op (error or failed correctness check).
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the result object and returns the exit code (0 iff no op
  /// failed and every metric is finite).
  int Finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  const RunConfig& config_;
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Everything a workload needs from main().
struct Context {
  const RunConfig& config;
  Report& report;
  Tracer& tracer;
  HostSpeed& host;
};

/// What a run collects from the Detect calls it attributes and tallies.
struct PairChecks {
  /// Filled by the traced run only.
  DetectLog log;
  Tally tally;
  uint64_t trees_checked = 0;
};

/// One read/update pair of a check pass, outside the timed part: detected
/// singly, logged, tallied and its witness checked. Returns the check's
/// failure, or an empty string when correct.
std::string CheckPair(Context& ctx, const xmlup::Engine& engine,
                      xmlup::PatternRef read, const xmlup::UpdateOp& update,
                      PairChecks* checks);

/// Number of set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Empties the process-wide product cache, so every set-up starts from the
/// same cold state.
void ClearProcessCaches();

/// Runs `make` kSetupRepeats times, destroying each state before the next
/// set-up starts, records each set-up's seconds and returns the last state.
/// Host-speed samples bracket every set-up; they calibrate setup_s alone,
/// since the host's speed during set-up can differ from the timed part's.
template <typename State, typename Make>
std::unique_ptr<State> RepeatSetup(Make make, HostSpeed* host,
                                   Samples* setup_seconds) {
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    ClearProcessCaches();
    host->Sample();
    const int64_t start = NowNs();
    state = make();
    setup_seconds->Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  host->Sample();
  host->EndSetup();
  return state;
}

/// End-to-end metrics every workload reports. Times and rates are divided
/// by the run's host slowdown (HostSpeed::Slowdown); the raw values are
/// printed next to them.
void ReportEndToEnd(Context& ctx, const Samples& setup_seconds,
                    const TimedPart& timed, double decided_share);

/// Per-layer metrics every workload reports (zero where the layer does no
/// work on the workload).
struct LayerInputs {
  const xmlup::Engine* engine = nullptr;
  /// engine->symbols()->size() when the timed part started.
  size_t symbols_before = 0;
  double intern_us = 0;
  double store_hit_rate = 0;
  const PairChecks* checks = nullptr;
  double pairs_per_program = 0;
  double lint_us = 0;
  const Samples* edit_us = nullptr;
  double certify_us = 0;
  double certified_share = 0;
  double apply_us = 0;
  double evaluate_us = 0;
};
void ReportPerLayer(Context& ctx, const TimedPart& timed,
                    const LayerInputs& in);

}  // namespace xbench

#endif  // XBENCH_SRC_HARNESS_H_
