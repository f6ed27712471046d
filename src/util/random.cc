#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace ses::util {

uint64_t Rng::NextBounded(uint64_t bound) {
  SES_CHECK_GT(bound, 0u);
  // Lemire's method: multiply-shift with rejection on the low word.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SES_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::UniformDouble(double lo, double hi) {
  SES_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  SES_CHECK_GE(n, 1u);
  SES_CHECK_GE(s, 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_[i - 1] = acc;
  }
  for (auto& value : cdf_) value /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin()) + 1;
}

int PoissonSample(Rng& rng, double lambda) {
  SES_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth: multiply uniforms until the product drops below e^-lambda.
    const double limit = std::exp(-lambda);
    double product = 1.0;
    int count = -1;
    do {
      product *= rng.NextDouble();
      ++count;
    } while (product > limit);
    return count;
  }
  // Normal approximation with continuity correction for large lambda.
  double u1 = rng.NextDouble();
  double u2 = rng.NextDouble();
  if (u1 <= 0.0) u1 = 1e-300;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double value = lambda + std::sqrt(lambda) * z + 0.5;
  return value < 0.0 ? 0 : static_cast<int>(value);
}

std::vector<uint32_t> SampleWithoutReplacement(Rng& rng, uint32_t n,
                                               uint32_t k) {
  std::vector<uint32_t> out;
  if (n == 0) return out;
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    Shuffle(out, rng);
    return out;
  }
  out.reserve(k);
  if (static_cast<uint64_t>(k) * 3 >= n) {
    // Dense case: partial Fisher-Yates over an index array.
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    for (uint32_t i = 0; i < k; ++i) {
      uint32_t j = i + static_cast<uint32_t>(rng.NextBounded(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  // Sparse case: rejection sampling with a hash set.
  std::unordered_set<uint32_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    uint32_t candidate = static_cast<uint32_t>(rng.NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace ses::util
