/// util::MetricRegistry semantics: counter/gauge/histogram behavior,
/// bucket-edge placement, snapshot consistency under concurrent
/// increments, renderer output — and the docs-lockstep pins that every
/// metric name an api::Scheduler registers appears verbatim in
/// docs/METRICS.md and every name the doc's tables list is registered
/// (the operator reference must never drift from the code).

#include "util/metrics.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/scheduler.h"

namespace ses::util {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("c");
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  // Same name returns the same metric.
  registry.GetCounter("c").Increment();
  EXPECT_EQ(counter.value(), 43u);
}

TEST(GaugeTest, SetIncrementDecrement) {
  MetricRegistry registry;
  Gauge& gauge = registry.GetGauge("g");
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(10);
  gauge.Increment(5);
  gauge.Decrement(3);
  EXPECT_EQ(gauge.value(), 12);
  gauge.Decrement(20);
  EXPECT_EQ(gauge.value(), -8);  // gauges are signed levels
}

TEST(HistogramTest, UpperInclusiveBucketsAndOverflow) {
  MetricRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {1.0, 2.0, 4.0});
  // Exactly on a bound lands in that bound's bucket (Prometheus "le").
  histogram.Observe(1.0);
  histogram.Observe(0.5);
  histogram.Observe(2.0);
  histogram.Observe(3.0);
  histogram.Observe(4.0);
  histogram.Observe(100.0);  // overflow
  EXPECT_EQ(histogram.bucket_count(0), 2u);  // 1.0, 0.5
  EXPECT_EQ(histogram.bucket_count(1), 1u);  // 2.0
  EXPECT_EQ(histogram.bucket_count(2), 2u);  // 3.0, 4.0
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // 100.0
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 110.5);
}

TEST(MetricRegistryTest, KindCollisionAborts) {
  MetricRegistry registry;
  registry.GetCounter("name");
  EXPECT_DEATH(registry.GetGauge("name"), "another kind");
  EXPECT_DEATH(registry.GetHistogram("name", {1.0}), "another kind");
}

TEST(MetricRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricRegistry registry;
  registry.GetCounter("b.counter").Increment(2);
  registry.GetCounter("a.counter").Increment(1);
  registry.GetGauge("z.gauge").Set(-7);
  registry.GetHistogram("m.histogram", {0.5}).Observe(0.1);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.counter");
  EXPECT_EQ(snapshot.counters[1].name, "b.counter");
  EXPECT_EQ(snapshot.CounterValue("b.counter"), 2u);
  EXPECT_EQ(snapshot.GaugeValue("z.gauge"), -7);
  ASSERT_NE(snapshot.FindHistogram("m.histogram"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("m.histogram")->count, 1u);
  EXPECT_EQ(snapshot.FindCounter("missing"), nullptr);
  EXPECT_EQ(snapshot.CounterValue("missing"), 0u);
  const std::vector<std::string> names = snapshot.Names();
  EXPECT_EQ(names, (std::vector<std::string>{"a.counter", "b.counter",
                                             "m.histogram", "z.gauge"}));
}

// The concurrency pin: exact totals after a many-thread hammer, and
// every mid-flight snapshot internally consistent (count never exceeds
// the bucket sum — Observe increments the bucket first).
TEST(MetricRegistryTest, ConcurrentIncrementsAreExactAndSnapshotsConsistent) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("hammered.counter");
  Histogram& histogram =
      registry.GetHistogram("hammered.histogram", {0.25, 0.5, 0.75});

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
        // Deterministic spread across all four buckets.
        histogram.Observe(static_cast<double>((t + i) % 4) / 4.0);
      }
    });
  }
  // A reader snapshots while writers run; every snapshot must satisfy
  // the documented invariant.
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const HistogramSample* sample =
          snapshot.FindHistogram("hammered.histogram");
      ASSERT_NE(sample, nullptr);
      uint64_t bucket_sum = 0;
      for (uint64_t bucket : sample->buckets) bucket_sum += bucket;
      EXPECT_LE(sample->count, bucket_sum);
      EXPECT_LE(snapshot.CounterValue("hammered.counter"),
                kThreads * kPerThread);
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  uint64_t bucket_sum = 0;
  for (size_t i = 0; i <= histogram.bounds().size(); ++i) {
    bucket_sum += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, kThreads * kPerThread);
}

TEST(MetricRegistryTest, ConcurrentRegistrationReturnsOneInstance) {
  MetricRegistry registry;
  constexpr size_t kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter& counter = registry.GetCounter("raced");
      counter.Increment();
      seen[t] = &counter;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(registry.Snapshot().CounterValue("raced"), kThreads);
}

TEST(RenderTest, TextAndCsvContainEveryMetric) {
  MetricRegistry registry;
  registry.GetCounter("render.counter").Increment(3);
  registry.GetGauge("render.gauge").Set(5);
  registry.GetHistogram("render.histogram", {0.001, 1.0}).Observe(0.01);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string text = RenderMetricsText(snapshot);
  EXPECT_NE(text.find("counter   render.counter"), std::string::npos);
  EXPECT_NE(text.find("gauge     render.gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram render.histogram"), std::string::npos);
  EXPECT_NE(text.find("le_0.001=0"), std::string::npos);
  EXPECT_NE(text.find("le_1=1"), std::string::npos);
  EXPECT_NE(text.find("inf=0"), std::string::npos);

  const std::string csv = RenderMetricsCsv(snapshot);
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,render.counter,value,3\n"),
            std::string::npos);
  EXPECT_NE(csv.find("gauge,render.gauge,value,5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,render.histogram,le_1,1\n"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,render.histogram,count,1\n"),
            std::string::npos);
}

// --- Docs lockstep --------------------------------------------------------

std::string ReadMetricsDoc() {
  const std::string doc_path =
      std::string(SES_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream doc_file(doc_path);
  EXPECT_TRUE(doc_file.good()) << "cannot open " << doc_path;
  std::stringstream buffer;
  buffer << doc_file.rdbuf();
  return buffer.str();
}

// docs/METRICS.md must list every metric name an api::Scheduler
// registers, verbatim. A fresh scheduler already exposes the full
// catalog (fixed names plus one solve-latency histogram per registered
// solver), so the doc can never silently lag a new metric.
TEST(MetricsDocsTest, EveryRegisteredNameAppearsInMetricsDoc) {
  const std::string doc = ReadMetricsDoc();
  const api::Scheduler scheduler;
  const std::vector<std::string> names =
      scheduler.metric_registry().Snapshot().Names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "metric '" << name
        << "' is registered by api::Scheduler but not documented in "
           "docs/METRICS.md";
  }
}

// The reverse direction: every name in the first column of a table row
// (`| `name` | ...`) must be registered by a fresh api::Scheduler, so a
// row for a deleted metric or solver cannot outlive the code; and with
// one row per registered name, no name is listed twice.
TEST(MetricsDocsTest, EveryDocumentedNameIsRegistered) {
  std::stringstream doc(ReadMetricsDoc());
  const api::Scheduler scheduler;
  const std::vector<std::string> registered =
      scheduler.metric_registry().Snapshot().Names();
  const std::set<std::string> names(registered.begin(), registered.end());

  size_t rows = 0;
  std::string line;
  while (std::getline(doc, line)) {
    if (!line.starts_with("| `")) continue;
    const size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    const std::string name = line.substr(3, end - 3);
    ++rows;
    EXPECT_TRUE(names.contains(name))
        << "docs/METRICS.md documents '" << name
        << "', which a fresh api::Scheduler does not register";
  }
  EXPECT_EQ(rows, names.size());
}

}  // namespace
}  // namespace ses::util
