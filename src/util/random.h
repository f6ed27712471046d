#ifndef SES_UTIL_RANDOM_H_
#define SES_UTIL_RANDOM_H_

/// \file
/// Deterministic pseudo-random toolkit.
///
/// Everything in the library that needs randomness takes an explicit Rng so
/// experiments are reproducible bit-for-bit from a seed. The engine is
/// xoshiro256++ seeded via SplitMix64; sampling helpers cover the
/// distributions the paper's workload needs (uniform, Zipf, discrete,
/// Poisson, sampling without replacement).

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace ses::util {

/// SplitMix64: used to expand a single 64-bit seed into engine state.
/// Reference: Sebastiano Vigna, http://prng.di.unimi.it/splitmix64.c
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> if ever needed, but the helpers below avoid
/// <random> for cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the engine deterministically from \p seed.
  explicit Rng(uint64_t seed = 0x5e5e5e5eULL) { Seed(seed); }

  /// Re-seeds the engine.
  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  uint64_t operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). \p bound must be positive. Uses
  /// Lemire's unbiased multiply-shift rejection method.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double UniformDouble(double lo, double hi);

  /// True with probability \p p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Samples from a Zipf distribution over {1, ..., n} with exponent \p s,
/// i.e. P(X = i) proportional to 1 / i^s. Uses precomputed CDF with binary
/// search; suitable for the catalog sizes used here (n up to ~1e6).
class ZipfSampler {
 public:
  /// \param n support size (>= 1). \param s exponent (>= 0; 0 = uniform).
  ZipfSampler(size_t n, double s);

  /// Draws a value in [1, n].
  size_t Sample(Rng& rng) const;

  /// Support size.
  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Poisson sample with mean \p lambda (Knuth's method for small lambda,
/// normal approximation above 64). Good enough for group-size synthesis.
int PoissonSample(Rng& rng, double lambda);

/// In-place Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  if (v.empty()) return;
  for (size_t i = v.size() - 1; i > 0; --i) {
    size_t j = rng.NextBounded(i + 1);
    using std::swap;
    swap(v[i], v[j]);
  }
}

/// Samples \p k distinct values uniformly from [0, n). Returns fewer than
/// \p k values only when k > n (then it returns all of [0, n) shuffled).
std::vector<uint32_t> SampleWithoutReplacement(Rng& rng, uint32_t n,
                                               uint32_t k);

}  // namespace ses::util

#endif  // SES_UTIL_RANDOM_H_
