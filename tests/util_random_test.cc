#include "util/random.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace ses::util {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 12);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedWithinBound) {
  Rng rng(9);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.UniformInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(14);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformDoubleRangeAndMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(2.0, 6.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 6.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(ZipfSamplerTest, UniformWhenExponentZero) {
  Rng rng(23);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(5, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t v = 1; v <= 4; ++v) {
    EXPECT_NEAR(counts[v] / static_cast<double>(n), 0.25, 0.02);
  }
}

TEST(ZipfSamplerTest, HeadHeavierThanTail) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.2);
  int head = 0;
  int tail = 0;
  for (int i = 0; i < 20000; ++i) {
    const size_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v <= 5) ++head;
    if (v > 50) ++tail;
  }
  EXPECT_GT(head, tail * 2);
}

TEST(ZipfSamplerTest, SupportSizeOne) {
  Rng rng(31);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 1u);
}

TEST(PoissonTest, ZeroLambda) {
  Rng rng(41);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(PoissonSample(rng, 0.0), 0);
}

TEST(PoissonTest, SmallLambdaMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += PoissonSample(rng, 3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(PoissonTest, LargeLambdaMean) {
  Rng rng(47);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += PoissonSample(rng, 100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(ShuffleTest, ProducesPermutation) {
  Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  Shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(ShuffleTest, EmptyAndSingleton) {
  Rng rng(59);
  std::vector<int> empty;
  Shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{7};
  Shuffle(one, rng);
  EXPECT_EQ(one[0], 7);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(61);
  for (uint32_t k : {1u, 5u, 50u, 90u}) {
    auto sample = SampleWithoutReplacement(rng, 100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (uint32_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(SampleWithoutReplacementTest, KAboveNReturnsAll) {
  Rng rng(67);
  auto sample = SampleWithoutReplacement(rng, 10, 20);
  EXPECT_EQ(sample.size(), 10u);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SampleWithoutReplacementTest, ZeroUniverse) {
  Rng rng(71);
  EXPECT_TRUE(SampleWithoutReplacement(rng, 0, 3).empty());
}

}  // namespace
}  // namespace ses::util
