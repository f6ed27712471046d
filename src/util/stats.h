#ifndef SES_UTIL_STATS_H_
#define SES_UTIL_STATS_H_

/// \file
/// Streaming and batch summary statistics used by dataset analysis and the
/// experiment harness.

#include <cstddef>
#include <string>
#include <vector>

namespace ses::util {

/// Welford-style streaming accumulator for mean and variance.
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations so far.
  size_t count() const { return count_; }

  /// Mean of the observations (0 when empty).
  double mean() const { return mean_; }

  /// Unbiased sample variance (0 with fewer than two observations).
  double variance() const;

  /// Square root of variance().
  double stddev() const;

  /// Smallest observation (+inf when empty).
  double min() const { return min_; }

  /// Largest observation (-inf when empty).
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Batch summary of a sample: moments plus selected percentiles.
///
/// For an empty sample, count is 0, mean/stddev are 0, and the order
/// statistics (min/max/p50/p90/p99) are NaN — never a process abort, so
/// summarizing a metrics window in which nothing was observed is safe.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  /// Human-readable one-liner.
  std::string ToString() const;
};

/// Computes a Summary over \p values (copied; input order preserved).
Summary Summarize(const std::vector<double>& values);

/// Linear-interpolation percentile over a *sorted* sample. \p q in
/// [0,1]. Returns NaN for an empty sample.
double PercentileSorted(const std::vector<double>& sorted, double q);

}  // namespace ses::util

#endif  // SES_UTIL_STATS_H_
