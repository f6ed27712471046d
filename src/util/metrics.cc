#include "util/metrics.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::util {

namespace {

/// Renders a bucket bound for text/CSV output: trailing-zero-trimmed
/// decimal ("0.001", "2.5"), so names stay stable across locales and
/// printf quirks.
std::string BoundLabel(double bound) {
  std::string label = StrFormat("%.6f", bound);
  while (!label.empty() && label.back() == '0') label.pop_back();
  if (!label.empty() && label.back() == '.') label.pop_back();
  return label;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      // Owned by the unique_ptr member this expression initializes.
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {  // ses-lint: allow(naked-new)
  SES_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  SES_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  // Upper-inclusive buckets: first bound >= value; everything above the
  // last bound lands in the overflow bucket.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  // Bucket before count, with the count release-published: a concurrent
  // Snapshot that acquire-reads `count_` first and the buckets after is
  // then guaranteed to see the bucket increment of every observation it
  // counted — count <= sum(buckets), never the reverse (the consistency
  // contract in the header; relaxed-only would allow the reorder on
  // weakly-ordered hardware).
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_release);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  SES_CHECK(gauges_.find(name) == gauges_.end() &&
            histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with another kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  SES_CHECK(counters_.find(name) == counters_.end() &&
            histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered with another kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        const std::vector<double>& bounds) {
  MutexLock lock(mutex_);
  SES_CHECK(counters_.find(name) == counters_.end() &&
            gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered with another kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    // Count before buckets (the mirror of Observe's bucket-then-count):
    // guarantees sample.count <= sum(sample.buckets) under concurrency.
    sample.count = histogram->count();
    sample.buckets.reserve(sample.bounds.size() + 1);
    for (size_t i = 0; i <= sample.bounds.size(); ++i) {
      sample.buckets.push_back(histogram->bucket_count(i));
    }
    sample.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

const std::vector<double>& MetricRegistry::LatencyBounds() {
  // Intentionally leaked function-local static: immune to shutdown-order
  // issues, and the process exit reclaims it.
  static const std::vector<double>* bounds = new std::vector<double>{  // ses-lint: allow(naked-new)
      0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0};
  return *bounds;
}

const CounterSample* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const CounterSample& sample : counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const GaugeSample& sample : gauges) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSample& sample : histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const CounterSample* sample = FindCounter(name);
  return sample == nullptr ? 0 : sample->value;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  const GaugeSample* sample = FindGauge(name);
  return sample == nullptr ? 0 : sample->value;
}

std::vector<std::string> MetricsSnapshot::Names() const {
  std::vector<std::string> names;
  names.reserve(counters.size() + gauges.size() + histograms.size());
  for (const CounterSample& sample : counters) names.push_back(sample.name);
  for (const GaugeSample& sample : gauges) names.push_back(sample.name);
  for (const HistogramSample& sample : histograms) {
    names.push_back(sample.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string RenderMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSample& sample : snapshot.counters) {
    out += StrFormat("counter   %-44s %llu\n", sample.name.c_str(),
                     static_cast<unsigned long long>(sample.value));
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    out += StrFormat("gauge     %-44s %lld\n", sample.name.c_str(),
                     static_cast<long long>(sample.value));
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    out += StrFormat("histogram %-44s count=%llu sum=%.6f mean=%.6f\n",
                     sample.name.c_str(),
                     static_cast<unsigned long long>(sample.count),
                     sample.sum, sample.mean());
    out += "          buckets:";
    for (size_t i = 0; i < sample.buckets.size(); ++i) {
      const std::string label = i < sample.bounds.size()
                                    ? "le_" + BoundLabel(sample.bounds[i])
                                    : std::string("inf");
      out += StrFormat(" %s=%llu", label.c_str(),
                       static_cast<unsigned long long>(sample.buckets[i]));
    }
    out += "\n";
  }
  return out;
}

std::string RenderMetricsCsv(const MetricsSnapshot& snapshot) {
  std::string out = "kind,name,field,value\n";
  for (const CounterSample& sample : snapshot.counters) {
    out += StrFormat("counter,%s,value,%llu\n", sample.name.c_str(),
                     static_cast<unsigned long long>(sample.value));
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    out += StrFormat("gauge,%s,value,%lld\n", sample.name.c_str(),
                     static_cast<long long>(sample.value));
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    for (size_t i = 0; i < sample.buckets.size(); ++i) {
      const std::string label = i < sample.bounds.size()
                                    ? "le_" + BoundLabel(sample.bounds[i])
                                    : std::string("inf");
      out += StrFormat("histogram,%s,%s,%llu\n", sample.name.c_str(),
                       label.c_str(),
                       static_cast<unsigned long long>(sample.buckets[i]));
    }
    out += StrFormat("histogram,%s,count,%llu\n", sample.name.c_str(),
                     static_cast<unsigned long long>(sample.count));
    out += StrFormat("histogram,%s,sum,%.6f\n", sample.name.c_str(),
                     sample.sum);
  }
  return out;
}

}  // namespace ses::util
