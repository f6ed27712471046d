#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace ses::util {

void RunningStat::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double PercentileSorted(const std::vector<double>& sorted, double q) {
  // An empty sample has no percentiles; NaN (not an abort) lets callers
  // summarize windows where nothing was observed — e.g. a bench trace
  // lane that saw zero requests — and render the gap explicitly.
  if (sorted.empty()) return std::nan("");
  SES_CHECK_GE(q, 0.0);
  SES_CHECK_LE(q, 1.0);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) {
    // count = 0 is the machine-readable emptiness marker; the order
    // statistics are NaN so an empty window can never be mistaken for
    // an all-zero latency sample.
    s.min = s.max = s.p50 = s.p90 = s.p99 = std::nan("");
    return s;
  }
  RunningStat rs;
  for (double v : values) rs.Add(v);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = PercentileSorted(sorted, 0.50);
  s.p90 = PercentileSorted(sorted, 0.90);
  s.p99 = PercentileSorted(sorted, 0.99);
  return s;
}

std::string Summary::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g "
                "p99=%.4g max=%.4g",
                count, mean, stddev, min, p50, p90, p99, max);
  return buf;
}

}  // namespace ses::util
