// Workload-driver benchmarks (E18): the declarative driver under
// google-benchmark timing, plus a harness-run smoke workload whose
// per-phase throughput/latency report lands in BENCH_workload.json for the
// CI bench-smoke job (the same envelope examples/xmlup_bench emits for
// arbitrary spec files).
//
// BM_BuildPlan isolates plan generation (all Rng draws, pattern
// generation, interning, binding) — the untimed part of a driver run.
// BM_ClosedLoopPhase runs a complete single-phase closed-loop workload at
// 1/2/4/8 workers against a warm engine, which is the driver's sustained-
// throughput shape.

#include <string>

#include "benchmark/benchmark.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/json.h"
#include "driver/driver.h"
#include "driver/workload_spec.h"
#include "engine/engine.h"

namespace xmlup {
namespace {

/// The smoke shape: small generator, two sessions, a mixed closed phase.
/// Mirrors workloads/smoke.json but is embedded so the bench binary runs
/// from any working directory.
constexpr char kSmokeSpec[] = R"({
  "name": "bench-smoke",
  "seed": 7,
  "generator": {
    "alphabet_size": 3,
    "tree": {"target_size": 10, "max_depth": 6},
    "pattern": {"size": 4}
  },
  "sessions": {"count": 2, "initial_reads": 2, "initial_updates": 2},
  "phases": [
    {"name": "warmup", "mode": "closed", "workers": 1, "ops": 30},
    {"name": "steady", "mode": "open", "workers": 2, "ops": 60,
     "arrival_rate": 100,
     "mix": {"insert": 0.4, "delete": 0.4, "edit": 0.2}}
  ]
})";

driver::WorkloadSpec SmokeSpec() {
  return driver::WorkloadSpec::Parse(kSmokeSpec).value();
}

driver::WorkloadSpec ClosedPhaseSpec(size_t workers) {
  driver::WorkloadSpec spec = SmokeSpec();
  spec.phases.resize(1);
  spec.phases[0].name = "closed";
  spec.phases[0].workers = workers;
  spec.phases[0].ops = 200;
  spec.phases[0].mix.edit = 0.2;
  return spec;
}

void BM_BuildPlan(benchmark::State& state) {
  const driver::WorkloadSpec spec = SmokeSpec();
  for (auto _ : state) {
    Engine engine;
    Result<driver::WorkloadPlan> plan = driver::Driver::BuildPlan(spec, &engine);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_BuildPlan)->Unit(benchmark::kMillisecond);

void BM_ClosedLoopPhase(benchmark::State& state) {
  const driver::WorkloadSpec spec =
      ClosedPhaseSpec(static_cast<size_t>(state.range(0)));
  // One engine across iterations: sustained throughput is measured against
  // a warm store, which is the production steady state.
  Engine engine;
  size_t ops = 0;
  for (auto _ : state) {
    driver::Driver workload_driver(&engine, spec);
    Result<driver::DriverReport> report = workload_driver.Run();
    if (!report.ok()) {
      state.SkipWithError("driver run failed");
      return;
    }
    ops += report->phases[0].ops_completed;
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClosedLoopPhase)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

/// Harness-run smoke workload: one full driver run whose report is spliced
/// into BENCH_workload.json as the "workload" member for
/// scripts/check_bench_json.py.
std::string RunSmokeWorkload() {
  const driver::WorkloadSpec spec = SmokeSpec();
  Engine engine;
  driver::Driver workload_driver(&engine, spec);
  Result<driver::DriverReport> report = workload_driver.Run();
  XMLUP_CHECK(report.ok());
  return "\"workload\":" + WriteJson(report->ToJson());
}

}  // namespace xmlup

/// Custom main (instead of benchmark_main): honors XMLUP_OBS, runs the
/// smoke workload, and dumps metrics + the driver report to
/// BENCH_workload.json for the CI bench-smoke job.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool obs = xmlup::bench::EnableObsFromEnv();
  std::cerr << "obs " << (obs ? "enabled" : "disabled (XMLUP_OBS=0)") << "\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string workload = xmlup::RunSmokeWorkload();
  xmlup::bench::DumpObs("workload", workload);
  return 0;
}
