#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

namespace xmlup {
namespace obs {
namespace {

TEST(HistogramTest, BucketIndexIsBitWidth) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // The tail bucket absorbs everything too wide for the table.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 60),
            Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketBoundsMatchIndexing) {
  // Every bucket's inclusive upper bound lands in that bucket, and the
  // next value lands in the next one.
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    const uint64_t le = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(le), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(le + 1), i + 1) << "bucket " << i;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(HistogramTest, ObserveAccumulatesCountSumAndBuckets) {
  Histogram h;
  for (uint64_t v : {0, 1, 2, 3, 100}) h.Observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(7), 1u);  // 100 in [64, 127]
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(CounterTest, EightThreadsLoseNoIncrements) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.concurrent");
  Histogram& histogram = registry.GetHistogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(histogram.count(), uint64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, SameNameReturnsSameMetricAndResetKeepsReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  registry.GetGauge("g").Set(-7);
  registry.Reset();
  EXPECT_EQ(a.value(), 0u);  // reference still valid, value zeroed
  EXPECT_EQ(registry.GetGauge("g").value(), 0);
  a.Increment();
  EXPECT_EQ(registry.Snapshot().counters.at("x"), 1u);
}

TEST(RegistryTest, SnapshotAndJsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Increment(5);
  registry.GetGauge("g.depth").Set(-2);
  Histogram& h = registry.GetHistogram("h.lat");
  h.Observe(0);
  h.Observe(5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c.one"), 5u);
  EXPECT_EQ(snapshot.gauges.at("g.depth"), -2);
  const auto& data = snapshot.histograms.at("h.lat");
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.sum, 5u);
  // Sparse buckets: (le=0, 1 obs) and (le=7, 1 obs).
  ASSERT_EQ(data.buckets.size(), 2u);
  EXPECT_EQ(data.buckets[0], (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(data.buckets[1], (std::pair<uint64_t, uint64_t>{7, 1}));

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.lat\":{\"count\":2,\"sum\":5,\"buckets\":"
                      "[[0,1],[7,1]]}"),
            std::string::npos)
      << json;
}

TEST(ScopedTimerTest, ObservesOnceOnDestruction) {
  Histogram h;
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;  // disabled by default
  { TraceSpan span(recorder, "ignored"); }
  recorder.Record({"direct", 0, 1, 0, 0});
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceTest, SpanNestingDepthsAndExportRoundTrip) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  uint64_t now = 100;
  recorder.SetClockForTest([&now] { return now; });
  {
    TraceSpan outer(recorder, "outer");
    now += 10;
    {
      TraceSpan inner(recorder, "inner");
      now += 5;
    }
    {
      TraceSpan inner2(recorder, "inner");
      now += 7;
    }
    now += 3;
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  // Spans close inner-first.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].start_us, 110u);
  EXPECT_EQ(events[0].dur_us, 5u);
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].dur_us, 7u);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].start_us, 100u);
  EXPECT_EQ(events[2].dur_us, 25u);
  EXPECT_EQ(events[2].depth, 0u);

  const std::string chrome = recorder.ToChromeTraceJson();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(
      chrome.find("{\"name\":\"outer\",\"cat\":\"xmlup\",\"ph\":\"X\","
                  "\"ts\":100,\"dur\":25,\"pid\":1,"),
      std::string::npos)
      << chrome;

  const std::string stats = recorder.ToStatsJson();
  EXPECT_NE(
      stats.find("\"inner\":{\"count\":2,\"total_us\":12,\"max_us\":7}"),
      std::string::npos)
      << stats;
  EXPECT_NE(
      stats.find("\"outer\":{\"count\":1,\"total_us\":25,\"max_us\":25}"),
      std::string::npos)
      << stats;

  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceTest, ConcurrentSpansAllArrive) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(recorder, "work");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder.Snapshot().size(), size_t{kThreads} * kPerThread);
}

TEST(HistogramDataTest, QuantilesOfUniformDistributionAreExact) {
  // Uniform 1..1024, one observation each. The power-of-two bucket i >= 2
  // holds exactly the 2^(i-1) values in (2^(i-1)-1, 2^i-1], so linear
  // interpolation from the previous bound reconstructs the true quantile
  // q*N exactly: the bucketing loses nothing on this distribution.
  Histogram h;
  for (uint64_t v = 1; v <= 1024; ++v) h.Observe(v);
  const HistogramData data = h.Data();
  EXPECT_EQ(data.count, 1024u);
  EXPECT_DOUBLE_EQ(data.Quantile(0.50), 512.0);
  EXPECT_DOUBLE_EQ(data.Quantile(0.95), 972.8);
  EXPECT_DOUBLE_EQ(data.Quantile(0.99), 1013.76);
  EXPECT_DOUBLE_EQ(data.Mean(), 512.5);
}

TEST(HistogramDataTest, QuantileEdgeCases) {
  const HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.MaxBound(), 0u);

  // All observations zero: every quantile is 0.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Observe(0);
  EXPECT_DOUBLE_EQ(zeros.Data().Quantile(0.99), 0.0);

  // Out-of-range q clamps instead of extrapolating.
  Histogram h;
  h.Observe(8);
  EXPECT_DOUBLE_EQ(h.Data().Quantile(-1.0), h.Data().Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Data().Quantile(2.0), h.Data().Quantile(1.0));

  // The unbounded tail bucket reports its lower edge rather than
  // inventing a value from an infinite width.
  Histogram tail;
  tail.Observe(100);
  tail.Observe(std::numeric_limits<uint64_t>::max());
  EXPECT_DOUBLE_EQ(tail.Data().Quantile(0.99), 127.0);

  // NaN clamps to q=0 like any other out-of-range input — it must not
  // fall through every bucket comparison to the tail bound.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(h.Data().Quantile(nan), h.Data().Quantile(0.0));

  // A racy DiffSince can yield count > 0 with an empty sparse bucket
  // list; that must degrade to 0, not read past the end.
  HistogramData racy;
  racy.count = 3;
  EXPECT_DOUBLE_EQ(racy.Quantile(0.5), 0.0);
}

TEST(HistogramDataTest, DiffSinceSubtractsBuckets) {
  Histogram h;
  for (uint64_t v : {1, 2, 100}) h.Observe(v);
  const HistogramData before = h.Data();
  for (uint64_t v : {3, 100, 5000}) h.Observe(v);
  const HistogramData diff = h.Data().DiffSince(before);
  EXPECT_EQ(diff.count, 3u);
  EXPECT_EQ(diff.sum, 5103u);
  // Only the buckets that grew appear: {3} in [2,3], {100} in [64,127],
  // {5000} in [4096,8191].
  ASSERT_EQ(diff.buckets.size(), 3u);
  EXPECT_EQ(diff.buckets[0], (std::pair<uint64_t, uint64_t>{3, 1}));
  EXPECT_EQ(diff.buckets[1], (std::pair<uint64_t, uint64_t>{127, 1}));
  EXPECT_EQ(diff.buckets[2], (std::pair<uint64_t, uint64_t>{8191, 1}));
}

TEST(SnapshotTest, DiffSinceGivesPerPhaseActivity) {
  MetricsRegistry registry;
  Counter& ops = registry.GetCounter("ops");
  Gauge& level = registry.GetGauge("level");
  Histogram& latency = registry.GetHistogram("latency");

  ops.Increment(10);
  level.Set(3);
  latency.Observe(100);
  const MetricsSnapshot before = registry.Snapshot();

  ops.Increment(5);
  level.Set(7);
  latency.Observe(200);
  latency.Observe(300);
  registry.GetCounter("late_registration").Increment(2);

  const MetricsSnapshot diff = registry.Snapshot().DiffSince(before);
  EXPECT_EQ(diff.counters.at("ops"), 5u);
  // Metrics registered after `before` diff against zero.
  EXPECT_EQ(diff.counters.at("late_registration"), 2u);
  // Gauges are levels: the diff carries the current value.
  EXPECT_EQ(diff.gauges.at("level"), 7);
  EXPECT_EQ(diff.histograms.at("latency").count, 2u);
  EXPECT_EQ(diff.histograms.at("latency").sum, 500u);
}

}  // namespace
}  // namespace obs
}  // namespace xmlup
