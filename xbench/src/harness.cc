#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "automata/nfa_ops.h"
#include "conflict/witness_check.h"

namespace xbench {

using xmlup::ConflictReport;
using xmlup::DetectorMethod;
using xmlup::Result;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Samples ---------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - lo) * (sorted[hi] - sorted[lo]);
}

size_t Samples::Beyond(double q) const {
  const size_t n = values_.size();
  const size_t rank = static_cast<size_t>(std::ceil(q * n));
  return n > rank ? n - rank : 0;
}

// --- Tracer ----------------------------------------------------------------

int Tracer::Open(const char* layer) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{layer, NowNs(), 0, 0, parent});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id, const char* layer) {
  if (id < 0) return;
  Span& span = spans_[id];
  span.end_ns = NowNs();
  if (layer != nullptr) span.layer = layer;
  if (span.parent >= 0) {
    spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  }
  // Spans close in stack order (RAII), so the closing span is on top.
  open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  std::map<std::string, LayerTime> layers;
  for (const Span& span : spans_) {
    LayerTime& t = layers[span.layer];
    const int64_t dur = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - span.child_ns;
  }
  return layers;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"dropped\":" << dropped_ << ",\"layers\":{";
  bool first = true;
  for (const auto& [layer, t] : Layers()) {
    out << (first ? "" : ",") << "\"" << layer << "\":{\"count\":" << t.count
        << ",\"total_us\":" << t.total_ns / 1000
        << ",\"self_us\":" << t.self_ns / 1000 << "}";
    first = false;
  }
  // Chrome trace_event layout, so the file loads in a trace viewer.
  out << "},\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << (s.start_ns - epoch) / 1000
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- CounterWindow ---------------------------------------------------------

void CounterWindow::Begin() {
  before_ = xmlup::obs::MetricsRegistry::Default().Snapshot();
}

void CounterWindow::End() {
  const xmlup::obs::MetricsSnapshot delta =
      xmlup::obs::MetricsRegistry::Default().Snapshot().DiffSince(before_);
  for (const auto& [name, value] : delta.counters) counters_[name] += value;
}

uint64_t CounterWindow::Counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double HitRate(const CounterWindow& window, std::string_view hits,
               std::string_view misses) {
  const double h = static_cast<double>(window.Counter(hits));
  return Ratio(h, h + static_cast<double>(window.Counter(misses)));
}

// --- TimedPart -------------------------------------------------------------

void TimedPart::Begin() {
  counters_.Begin();
  op_start_ns_ = NowNs();
}

double TimedPart::End() {
  const int64_t dur = NowNs() - op_start_ns_;
  counters_.End();
  elapsed_ns_ += dur;
  const double us = static_cast<double>(dur) / 1e3;
  op_us_.Add(us);
  if (++ops_ == rss_ops_) rss_mb_ = xbench::PeakRssMb();
  if (elapsed_ns_ >= next_sample_ns_) {
    host_->Sample();
    next_sample_ns_ = elapsed_ns_ + kSampleEveryNs;
  }
  return us;
}

double TimedPart::PeakRssMb() const {
  return rss_mb_ >= 0 ? rss_mb_ : xbench::PeakRssMb();
}

std::string CheckDetect(const xmlup::Engine& engine, xmlup::PatternRef read,
                        const xmlup::UpdateOp& update,
                        const Result<ConflictReport>& result) {
  if (!result.ok()) return "Detect error: " + result.status().ToString();
  if (result->verdict != xmlup::ConflictVerdict::kConflict) return "";
  if (!result->witness.has_value()) return "kConflict without a witness";
  const xmlup::Pattern& read_pattern = engine.pattern(read);
  const xmlup::ConflictSemantics semantics =
      engine.detector_options().semantics;
  const bool witnessed =
      update.kind() == xmlup::UpdateOp::Kind::kInsert
          ? xmlup::IsReadInsertWitness(read_pattern, update.pattern(),
                                       update.content(), *result->witness,
                                       semantics)
          : xmlup::IsReadDeleteWitness(read_pattern, update.pattern(),
                                       *result->witness, semantics);
  return witnessed ? "" : "kConflict witness fails the Lemma 1 check";
}

Result<ConflictReport> TracedDetect(Tracer& tracer,
                                    const xmlup::Engine& engine,
                                    xmlup::PatternRef read,
                                    const xmlup::UpdateOp& update) {
  ScopedSpan span(tracer, "conflict");
  Result<ConflictReport> result = engine.Detect(read, update);
  if (result.ok() && result->method == DetectorMethod::kBoundedSearch) {
    span.set_layer("bounded_search");
  } else if (result.ok() && result->method == DetectorMethod::kTypePruned) {
    span.set_layer("dtd");
  }
  return result;
}

std::string CheckPair(Context& ctx, const xmlup::Engine& engine,
                      xmlup::PatternRef read, const xmlup::UpdateOp& update,
                      PairChecks* checks) {
  const int64_t start = NowNs();
  const Result<ConflictReport> result =
      TracedDetect(ctx.tracer, engine, read, update);
  if (ctx.tracer.enabled()) {
    checks->log.Add(result, static_cast<double>(NowNs() - start) / 1e3);
  }
  checks->tally.AddVerdict("detect.", result);
  if (result.ok()) checks->trees_checked += result->trees_checked;
  return CheckDetect(engine, read, update, result);
}

// --- DetectLog -------------------------------------------------------------

void DetectLog::Add(const Result<ConflictReport>& result, double us) {
  if (!result.ok()) {
    calls_.push_back(Call{false, DetectorMethod::kLinearPtime, us, 0});
    return;
  }
  calls_.push_back(Call{true, result->method, us, result->trees_checked});
}

double DetectLog::Share(DetectorMethod method) const {
  size_t n = 0;
  for (const Call& c : calls_) n += c.ok && c.method == method;
  return Ratio(static_cast<double>(n), static_cast<double>(calls_.size()));
}

double DetectLog::MedianUs(DetectorMethod method) const {
  Samples s;
  for (const Call& c : calls_) {
    if (c.ok && c.method == method) s.Add(c.us);
  }
  return s.Quantile(0.5);
}

double DetectLog::TimeShare(DetectorMethod method) const {
  double part = 0;
  double all = 0;
  for (const Call& c : calls_) {
    all += c.us;
    if (c.ok && c.method == method) part += c.us;
  }
  return Ratio(part, all);
}

double DetectLog::SearchUsPerTree() const {
  double us = 0;
  double trees = 0;
  for (const Call& c : calls_) {
    if (c.ok && c.method == DetectorMethod::kBoundedSearch) {
      us += c.us;
      trees += static_cast<double>(c.trees);
    }
  }
  return Ratio(us, trees);
}

// --- Tally -----------------------------------------------------------------

void Tally::AddVerdict(const std::string& prefix,
                       const Result<ConflictReport>& result) {
  if (!result.ok()) {
    Add(prefix + "error");
    return;
  }
  Add(prefix + "verdict." +
      std::string(xmlup::ConflictVerdictName(result->verdict)));
  Add(prefix + "method." +
      std::string(xmlup::DetectorMethodName(result->method)));
}

std::string Tally::ToString() const {
  std::string line;
  for (const auto& [key, n] : counts_) {
    line += (line.empty() ? "" : " ") + key + "=" + std::to_string(n);
  }
  return line;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ClearProcessCaches() { xmlup::NfaProductCache::Default().Clear(); }

// --- Report ----------------------------------------------------------------

namespace {

std::string FormatValue(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string FormatShort(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  Note("end_to_end " + name + " = " + FormatShort(value) + " " + unit);
  if (!config_.trace) metrics_.push_back(Metric{name, value, unit});
}

void Report::PerLayer(const std::string& name, double value,
                      const std::string& unit) {
  if (!config_.trace) return;
  Note("per_layer " + name + " = " + FormatShort(value) + " " + unit);
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Timing(const std::string& label, const Samples& samples) {
  std::string line = label + ": p50 " + FormatShort(samples.Quantile(0.5)) +
                     " us";
  for (const auto& [name, q] : {std::pair{"p90", 0.9}, std::pair{"p99", 0.99}}) {
    const size_t beyond = samples.Beyond(q);
    if (beyond >= 10) {
      line += std::string(", ") + name + " " +
              FormatShort(samples.Quantile(q)) + " us (" +
              std::to_string(beyond) + " samples beyond)";
    } else {
      line += std::string(", ") + name + " not shown (" +
              std::to_string(beyond) + " samples beyond it, 10 needed)";
    }
  }
  Note(line + ", " + std::to_string(samples.size()) + " samples");
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 20) std::cerr << "FAILED: " << why << "\n";
}

int Report::Finish() {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      finite = false;
      std::cerr << "metric " << m.name << " is not finite\n";
      continue;
    }
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + FormatValue(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = failed_ == 0 && finite && attempted_ > 0;
  Note(std::string("{\"correct\": ") + (correct ? "true" : "false") +
       ", \"attempted\": " + std::to_string(attempted_) +
       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
       metrics + "}}");
  std::cout.flush();
  return correct ? 0 : 1;
}

// --- Shared metric blocks --------------------------------------------------

void ReportEndToEnd(Context& ctx, const Samples& setup_seconds,
                    const TimedPart& timed, double decided_share) {
  Report& r = ctx.report;
  const double raw_ops_per_s =
      Ratio(static_cast<double>(timed.ops()), timed.seconds());
  const double slowdown = ctx.host.Slowdown();
  const Samples& op_us = timed.op_us();
  const double ops_per_s = raw_ops_per_s * slowdown;
  r.Timing("op latency (raw)", op_us);
  r.Note("timed part: " + std::to_string(timed.ops()) + " ops in " +
         FormatShort(timed.seconds()) + " s (raw " +
         FormatShort(raw_ops_per_s) + " ops/s)");
  const double setup_slowdown = ctx.host.SetupSlowdown();
  r.Note("host slowdown = " + FormatShort(slowdown) + " in the timed part, " +
         FormatShort(setup_slowdown) + " in set-up (median kernel " +
         FormatShort(ctx.host.TimedKernelUs()) + " / " +
         FormatShort(ctx.host.SetupKernelUs()) + " us, " +
         std::to_string(ctx.host.samples()) + " samples, reference " +
         FormatShort(HostSpeed::kReferenceKernelUs) +
         " us); end-to-end times below are divided by it");
  r.Note("raw setup_s = " + FormatShort(setup_seconds.Quantile(0.5)) +
         " s, raw op_p90_us = " + FormatShort(op_us.Quantile(0.9)) + " us");
  r.Note("error_share = " +
         FormatShort(Ratio(static_cast<double>(r.failed()),
                           static_cast<double>(r.attempted()))) +
         " ratio (" + std::to_string(r.failed()) + " of " +
         std::to_string(r.attempted()) + " ops)");
  r.EndToEnd("setup_s", setup_seconds.Quantile(0.5) / setup_slowdown, "s");
  r.EndToEnd("ops_per_s", ops_per_s, "ops/s");
  r.EndToEnd("op_p90_us", op_us.Quantile(0.9) / slowdown, "us");
  r.EndToEnd("decided_share", decided_share, "ratio");
  r.Note("peak resident memory over the whole run: " +
         FormatShort(PeakRssMb()) + " MiB");
  r.EndToEnd("peak_rss_mb", timed.PeakRssMb(), "MiB");
  if (ctx.config.trace) r.PerLayer("trace.ops_per_s", ops_per_s, "ops/s");
}

void ReportPerLayer(Context& ctx, const TimedPart& timed,
                    const LayerInputs& in) {
  Report& r = ctx.report;
  if (!ctx.config.trace) return;
  const CounterWindow& c = timed.counters();
  const DetectLog& d = in.checks->log;

  r.PerLayer("pattern.intern_us", in.intern_us, "us");
  r.PerLayer("pattern.store_hit_rate", in.store_hit_rate, "ratio");
  r.PerLayer("pattern.compiled_hit_rate",
             HitRate(c, "store.nfa.hits", "store.nfa.misses"), "ratio");

  // Stage 0 answers come from the detector facade (singleton calls) and
  // from the batch engine, which prunes before its memo and never calls
  // the detector for pruned pairs. Batch misses do reach the facade.
  const auto count = [&](std::string_view name) {
    return static_cast<double>(c.Counter(name));
  };
  const double pruned =
      count("detector.method.type_pruned") + count("batch.type_pruned");
  const double requested = count("detector.calls") -
                           count("batch.cache_misses") +
                           count("batch.pairs_total");
  r.PerLayer("dtd.pruned_share", Ratio(pruned, requested), "ratio");

  r.PerLayer("automata.product_hit_rate",
             Ratio(count("detector.product_cache.hits"),
                   count("detector.product_cache.lookups")),
             "ratio");

  r.PerLayer("conflict.linear_share", d.Share(DetectorMethod::kLinearPtime),
             "ratio");
  r.PerLayer("conflict.linear_us", d.MedianUs(DetectorMethod::kLinearPtime),
             "us");
  r.PerLayer("conflict.mainline_share",
             d.Share(DetectorMethod::kMainlineHeuristic), "ratio");
  r.PerLayer("conflict.mainline_us",
             d.MedianUs(DetectorMethod::kMainlineHeuristic), "us");

  r.PerLayer("bounded_search.time_share",
             d.TimeShare(DetectorMethod::kBoundedSearch), "ratio");
  r.PerLayer("bounded_search.trees_checked",
             static_cast<double>(in.checks->trees_checked), "count");
  r.PerLayer("bounded_search.us_per_tree", d.SearchUsPerTree(), "us");
  r.PerLayer("bounded_search.witness_yield",
             Ratio(count("bounded_search.witnesses_found"),
                   count("bounded_search.searches")),
             "ratio");

  r.PerLayer("batch.memo_hit_rate",
             HitRate(c, "batch.cache_hits", "batch.cache_misses"), "ratio");

  r.PerLayer("conflict_matrix.reuse_share",
             HitRate(c, "matrix.cells_reused", "matrix.cells_recomputed"),
             "ratio");
  r.PerLayer("conflict_matrix.edit_p50_us",
             in.edit_us != nullptr ? in.edit_us->Quantile(0.5) : 0, "us");

  r.PerLayer("analysis.pairs_per_program", in.pairs_per_program, "count");
  r.PerLayer("analysis.lint_us", in.lint_us, "us");

  r.PerLayer("merge.certify_us", in.certify_us, "us");
  r.PerLayer("merge.certified_share", in.certified_share, "ratio");
  r.PerLayer("ops.apply_us", in.apply_us, "us");
  r.PerLayer("eval.evaluate_us", in.evaluate_us, "us");

  r.PerLayer("pattern.store_entries",
             static_cast<double>(in.engine->store()->size()), "count");
  r.PerLayer("automata.product_entries",
             static_cast<double>(xmlup::NfaProductCache::Default().size()),
             "count");
  r.PerLayer("xml.symbols_growth",
             static_cast<double>(in.engine->symbols()->size()) -
                 static_cast<double>(in.symbols_before),
             "count");

  // Self time per layer over the whole traced run (set-ups, timed part,
  // checks and attribution passes), from the benchmark's spans.
  r.Note("span self time per layer (ms, all phases):");
  for (const auto& [layer, t] : ctx.tracer.Layers()) {
    r.Note("  " + layer + ": " + std::to_string(t.count) + " spans, total " +
           FormatShort(static_cast<double>(t.total_ns) / 1e6) + ", self " +
           FormatShort(static_cast<double>(t.self_ns) / 1e6));
  }
}

}  // namespace xbench
