#ifndef SES_UTIL_METRICS_H_
#define SES_UTIL_METRICS_H_

/// \file
/// Process-local metrics: named counters, gauges, and fixed-bucket
/// latency histograms behind a MetricRegistry.
///
/// Design goals, in order:
///
///  1. **Lock-cheap increments.** Counter::Increment, Gauge::Set, and
///     Histogram::Observe are single relaxed atomic operations — safe to
///     call from any thread on a serving hot path. The registry mutex is
///     taken only at registration (name lookup) and snapshot time, never
///     per increment: callers look a metric up once and keep the
///     reference, which stays valid for the registry's lifetime.
///  2. **Consistent snapshots.** Snapshot() returns a self-contained,
///     name-sorted copy of every registered metric. Per-histogram
///     consistency under concurrent Observe calls is "bucket first":
///     an Observe increments its bucket before the total count, so any
///     snapshot satisfies `count() <= sum(buckets)`; once writers have
///     quiesced the two are equal. (See tests/util_metrics_test.cc.)
///  3. **Renderable.** RenderMetricsText / RenderMetricsCsv turn a
///     snapshot into the operator-facing dump behind `ses_cli metrics`;
///     docs/METRICS.md documents every name the scheduler registers.
///
/// Metrics are owned by the registry and never deleted: a registry is
/// meant to live as long as the component it instruments (e.g. one per
/// api::Scheduler), so handles can be cached without lifetime ceremony.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ses::util {

/// Monotonically increasing event count. Thread-safe.
class Counter {
 public:
  /// Adds \p n (default 1).
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Current total.
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, loaded instances).
/// Thread-safe.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with upper-inclusive bounds (Prometheus "le"
/// convention): bucket i counts observations v with v <= bounds[i]; one
/// implicit overflow bucket counts everything above the last bound.
/// Bounds are fixed at registration; Observe is two relaxed atomic adds
/// plus a branch-free upper_bound over a handful of doubles.
class Histogram {
 public:
  /// Records one observation.
  void Observe(double value);

  /// Upper bounds, ascending (the overflow bucket is implicit).
  const std::vector<double>& bounds() const { return bounds_; }

  /// Count in bucket \p i; i == bounds().size() is the overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Total observations. May momentarily trail the bucket sum while
  /// concurrent Observe calls are in flight (never exceeds it: the
  /// acquire pairs with Observe's release so every counted
  /// observation's bucket increment is visible to later bucket reads).
  uint64_t count() const { return count_.load(std::memory_order_acquire); }

  /// Sum of all observed values.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<double> bounds);

  const std::vector<double> bounds_;
  /// bounds_.size() + 1 entries; the last is the overflow bucket.
  const std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One counter in a snapshot.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

/// One gauge in a snapshot.
struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

/// One histogram in a snapshot. `buckets` has bounds.size() + 1 entries
/// (the last is the overflow bucket).
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;

  /// Mean observation (0 when empty).
  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Point-in-time copy of a registry, each section sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers for tests and typed accessors; null when absent.
  const CounterSample* FindCounter(std::string_view name) const;
  const GaugeSample* FindGauge(std::string_view name) const;
  const HistogramSample* FindHistogram(std::string_view name) const;

  /// Counter value by name; 0 when the counter is absent.
  uint64_t CounterValue(std::string_view name) const;

  /// Gauge value by name; 0 when the gauge is absent.
  int64_t GaugeValue(std::string_view name) const;

  /// Every metric name, sorted, across all three kinds.
  std::vector<std::string> Names() const;
};

/// Named metric owner. Registration and Snapshot take a mutex; the
/// returned references are valid for the registry's lifetime and their
/// increments are lock-free. A name identifies exactly one metric kind —
/// re-registering it as a different kind aborts (programming error).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the counter registered under \p name, creating it on first
  /// use.
  Counter& GetCounter(const std::string& name) SES_EXCLUDES(mutex_);

  /// Returns the gauge registered under \p name, creating it on first
  /// use.
  Gauge& GetGauge(const std::string& name) SES_EXCLUDES(mutex_);

  /// Returns the histogram registered under \p name, creating it with
  /// \p bounds (ascending upper bounds, non-empty) on first use.
  /// Subsequent calls ignore \p bounds — the first registration wins.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds)
      SES_EXCLUDES(mutex_);

  /// Consistent, name-sorted copy of every registered metric.
  MetricsSnapshot Snapshot() const SES_EXCLUDES(mutex_);

  /// Shared default bucket bounds for wall-clock latencies, in seconds:
  /// 1ms .. ~100s in roughly 3x steps. Small enough to scan per
  /// Observe, wide enough for queue waits and solver runs alike.
  static const std::vector<double>& LatencyBounds();

 private:
  mutable Mutex mutex_;
  // std::map: deterministic iteration gives name-sorted snapshots for
  // free; registration is far off any hot path. The unique_ptr values
  // are the guarded state (map shape); the pointees are lock-free
  // metrics whose references outlive any critical section by design.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      SES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SES_GUARDED_BY(mutex_);
};

/// Human-readable dump: one line per counter/gauge, a two-line block per
/// histogram (totals, then per-bucket counts).
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

/// Machine-readable dump: header `kind,name,field,value`, one row per
/// counter/gauge value and per histogram bucket/count/sum.
std::string RenderMetricsCsv(const MetricsSnapshot& snapshot);

}  // namespace ses::util

#endif  // SES_UTIL_METRICS_H_
