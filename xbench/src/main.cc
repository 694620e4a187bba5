// The xmlup benchmark binary:
//
//   xbench --workload <branching_detect|lint_corpus|merge_edits>
//          --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload closed-loop from one client thread, checks every
// output, prints human-readable lines and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
// Exits non-zero when any op fails or a check fails.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/trace.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "xbench: " << why
            << "\nusage: xbench --workload "
               "<branching_detect|lint_corpus|merge_edits> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

bool ParseSeconds(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && *out > 0 &&
         *out <= 3600;
}

bool ParseSeed(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  xbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      ok = ParseSeed(value, &config.seed);
    } else if (flag == "--seconds") {
      ok = ParseSeconds(value, &config.seconds);
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      config.trace = value == "1";
    } else {
      ok = false;
    }
    if (!ok) return Usage("bad argument " + flag + " " + value);
  }

  // The library's own span recorder keeps every span in one unbounded
  // buffer; it stays off in both runs. Spans come from the benchmark.
  xmlup::obs::TraceRecorder::Default().set_enabled(false);

  xbench::Report report(config);
  xbench::Tracer tracer(config.trace);
  xbench::HostSpeed host;
  xbench::Context ctx{config, report, tracer, host};
  report.Note("workload " + config.workload + ", seed " +
              std::to_string(config.seed) + ", " +
              std::to_string(config.seconds) + " s, trace " +
              (config.trace ? "on" : "off") + ", 1 client thread");
  if (config.workload == "branching_detect") {
    xbench::RunBranchingDetect(ctx);
  } else if (config.workload == "lint_corpus") {
    xbench::RunLintCorpus(ctx);
  } else if (config.workload == "merge_edits") {
    xbench::RunMergeEdits(ctx);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  if (config.trace) {
    std::error_code ec;
    // Relative to the working directory: the root of the checkout.
    const std::string dir = ".bench_out";
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/spans-" + config.workload + "-" +
                             std::to_string(config.seed) + ".json";
    if (ec || !tracer.WriteJson(path)) {
      report.Fail("cannot write spans to " + path);
    } else {
      report.Note("spans written to " + path + " (" +
                  std::to_string(tracer.dropped()) + " dropped)");
    }
  }
  return report.Finish();
}
