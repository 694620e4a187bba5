// Golden-file test for the trace exporters: a fixed span scenario driven
// by a fake clock must serialize to byte-identical Chrome trace JSON and
// stats JSON. If an exporter change is intentional, update the goldens in
// tests/goldens/ (the failure message prints the actual output).

#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "obs/trace.h"

namespace xmlup {
namespace obs {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(XMLUP_TEST_SRCDIR) + "/goldens/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  // Tolerate a trailing newline added by editors / POSIX conventions.
  while (!content.empty() && content.back() == '\n') content.pop_back();
  return content;
}

/// The fixed scenario: a top-level span, a nested child, and one event a
/// worker thread recorded. All times come from the fake clock; the
/// main-thread tid is 0 because this test binary runs the scenario on the
/// first thread that ever asks for an id.
void RecordScenario(TraceRecorder* recorder) {
  uint64_t now = 0;
  recorder->SetClockForTest([&now] { return now; });
  recorder->set_enabled(true);
  {
    TraceSpan load(*recorder, "load");
    now += 40;
  }
  {
    TraceSpan detect(*recorder, "detect");
    now += 10;
    {
      TraceSpan search(*recorder, "search");
      now += 25;
    }
    now += 25;
  }
  recorder->Record({"worker", 60, 30, 7, 0});
}

TEST(TraceGoldenTest, ChromeTraceJsonMatchesGolden) {
  ASSERT_EQ(CurrentThreadId(), 0u)
      << "scenario must run on the process's first traced thread";
  TraceRecorder recorder;
  RecordScenario(&recorder);
  EXPECT_EQ(recorder.ToChromeTraceJson(), ReadGolden("trace_chrome.json"))
      << "actual:\n"
      << recorder.ToChromeTraceJson();
}

TEST(TraceGoldenTest, StatsJsonMatchesGolden) {
  TraceRecorder recorder;
  RecordScenario(&recorder);
  EXPECT_EQ(recorder.ToStatsJson(), ReadGolden("trace_stats.json"))
      << "actual:\n"
      << recorder.ToStatsJson();
}

}  // namespace
}  // namespace obs
}  // namespace xmlup
