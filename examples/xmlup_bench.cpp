// xmlup_bench: run a declarative workload spec against the engine and
// report per-phase sustained throughput and p50/p95/p99/max latency.
//
// Usage:
//   xmlup_bench --spec workloads/reference.json
//   xmlup_bench --spec workloads/smoke.json --workers 8 --seed 7
//
// The spec is a JSON file (see workloads/ and src/driver/workload_spec.h
// for the schema): named phases with worker counts, closed/open-loop
// arrival, an insert/delete/edit operation mix, plus generator shape and
// session-churn configuration. The run is deterministic for a fixed seed:
// the whole operation plan is drawn up front, single-threaded, and the
// worker count only changes timing, never verdicts.
//
// Besides the human-readable summary on stdout, the run dumps
// BENCH_workload.json (and a Chrome trace next to it) in the same envelope
// the other bench harnesses emit, so `scripts/check_bench_json.py workload`
// validates it in CI. Set XMLUP_OBS=0 to disable the trace recorder.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "driver/driver.h"
#include "driver/workload_spec.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace xmlup;  // examples only; library code never does this

namespace {

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --spec <workload.json> [options]\n"
      << "  --spec FILE     workload spec to run (required)\n"
      << "  --out FILE      stats dump path (default BENCH_workload.json)\n"
      << "  --seed N        override the spec's seed\n"
      << "  --workers N     override every phase's worker count\n"
      << "  --print-spec    echo the parsed spec (after overrides) and exit\n";
  return 2;
}

void PrintPhase(const driver::PhaseReport& phase) {
  const std::string mode(driver::PhaseModeName(phase.mode));
  std::printf(
      "  %-10s %-6s %zu worker%s  %5zu/%zu ops%s  %8.0f ops/s\n"
      "             latency us: p50 %.0f  p95 %.0f  p99 %.0f  max %llu\n"
      "             verdicts: %llu conflict, %llu no-conflict, %llu unknown, "
      "%llu errors\n",
      phase.name.c_str(), mode.c_str(), phase.workers,
      phase.workers == 1 ? " " : "s", phase.ops_completed, phase.ops_planned,
      phase.truncated ? " (truncated)" : "", phase.throughput_ops_per_s,
      phase.latency.p50_us, phase.latency.p95_us, phase.latency.p99_us,
      static_cast<unsigned long long>(phase.latency.max_us),
      static_cast<unsigned long long>(phase.verdicts.conflict),
      static_cast<unsigned long long>(phase.verdicts.no_conflict),
      static_cast<unsigned long long>(phase.verdicts.unknown),
      static_cast<unsigned long long>(phase.verdicts.errors));
  if (phase.merge.merges > 0 || phase.merge.errors > 0) {
    std::printf(
        "             merges: %llu (%llu ops: %llu accepted, %llu "
        "serialized, %llu rejected; %llu errors)\n",
        static_cast<unsigned long long>(phase.merge.merges),
        static_cast<unsigned long long>(phase.merge.ops_total),
        static_cast<unsigned long long>(phase.merge.accepted),
        static_cast<unsigned long long>(phase.merge.serialized),
        static_cast<unsigned long long>(phase.merge.rejected),
        static_cast<unsigned long long>(phase.merge.errors));
  }
}

/// Same envelope as bench/bench_util.h DumpObs, with the driver report
/// spliced in as the "workload" member.
void DumpStats(const std::string& out_path, const driver::DriverReport& report) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  std::ofstream stats(out_path);
  stats << "{\"bench\":\"workload\",\"obs_enabled\":"
        << (recorder.enabled() ? "true" : "false")
        << ",\"workload\":" << WriteJson(report.ToJson()) << ",\"metrics\":"
        << obs::MetricsRegistry::Default().Snapshot().ToJson()
        << ",\"trace\":" << recorder.ToStatsJson() << "}\n";
  stats.close();

  std::string trace_path = out_path;
  const size_t dot = trace_path.rfind(".json");
  trace_path.insert(dot == std::string::npos ? trace_path.size() : dot,
                    "_trace");
  std::ofstream trace(trace_path);
  trace << recorder.ToChromeTraceJson() << "\n";
  trace.close();
  std::cerr << "obs dump: " << out_path << " + " << trace_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path = "BENCH_workload.json";
  bool print_spec = false;
  long long seed_override = -1;
  long long workers_override = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      spec_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      seed_override = std::atoll(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || std::atoll(v) < 1) return Usage(argv[0]);
      workers_override = std::atoll(v);
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec_path.empty()) return Usage(argv[0]);

  std::ifstream file(spec_path);
  if (!file) {
    std::cerr << "cannot open spec file: " << spec_path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  Result<driver::WorkloadSpec> parsed = driver::WorkloadSpec::Parse(buffer.str());
  if (!parsed.ok()) {
    std::cerr << spec_path << ": " << parsed.status() << "\n";
    return 1;
  }
  driver::WorkloadSpec spec = *std::move(parsed);
  if (seed_override >= 0) spec.seed = static_cast<uint64_t>(seed_override);
  if (workers_override >= 1) {
    for (driver::PhaseSpec& phase : spec.phases) {
      phase.workers = static_cast<size_t>(workers_override);
    }
  }
  if (print_spec) {
    std::cout << WriteJsonPretty(spec.ToJson());
    return 0;
  }

  // Mirror the bench harnesses' XMLUP_OBS toggle (default: on).
  const char* obs_env = std::getenv("XMLUP_OBS");
  const bool obs_enabled = obs_env == nullptr || std::strcmp(obs_env, "0") != 0;
  obs::TraceRecorder::Default().set_enabled(obs_enabled);

  // A spec with a "dtd" block builds a schema-aware engine: its Stage 0
  // type filter prunes schema-disjoint pairs before any automata work.
  auto symbols = std::make_shared<SymbolTable>();
  Result<EngineOptions> options = driver::EngineOptionsForSpec(spec, symbols);
  if (!options.ok()) {
    std::cerr << spec_path << ": " << options.status() << "\n";
    return 1;
  }
  Engine engine(symbols, *std::move(options));
  driver::Driver workload_driver(&engine, spec);
  Result<driver::DriverReport> report = workload_driver.Run();
  if (!report.ok()) {
    std::cerr << "driver failed: " << report.status() << "\n";
    return 1;
  }

  std::printf("workload %s (seed %llu):\n", report->workload.c_str(),
              static_cast<unsigned long long>(report->seed));
  for (const driver::PhaseReport& phase : report->phases) PrintPhase(phase);
  std::printf(
      "  total verdicts: %llu conflict, %llu no-conflict, %llu unknown, "
      "%llu errors\n",
      static_cast<unsigned long long>(report->total_verdicts.conflict),
      static_cast<unsigned long long>(report->total_verdicts.no_conflict),
      static_cast<unsigned long long>(report->total_verdicts.unknown),
      static_cast<unsigned long long>(report->total_verdicts.errors));

  DumpStats(out_path, *report);
  return 0;
}
