/// \file
/// Differential kernel-testing harness for the SoA kernel layer
/// (core/kernels.h): every batched span kernel is compared against a
/// kept scalar reference implementation — the exact loops the kernels
/// replaced — and the kernel-backed AttendanceModel is compared
/// against both a from-scratch scalar recompute and the objective.h
/// oracle, property-swept over seeds × sigma providers × degenerate
/// instance shapes × thread counts.
///
/// Equality tiers (see the contract note atop core/kernels.h):
///
///   BIT-IDENTICAL — kernel vs the scalar loop it replaced, and
///     MarginalGain vs a scalar from-scratch recompute that accumulates
///     in the same order. The kernels preserve evaluation order, so any
///     difference — one reassociated add, one fused multiply — is a
///     test failure, not tolerance noise.
///   ≤ 1e-6 RELATIVE — MarginalGain vs objective::AssignmentScore. The
///     oracle sums per-user terms in a different association (dense
///     denominators rebuilt over a schedule copy), so bit-equality is
///     not defined; 1e-6 matches the pre-existing pin in
///     core_attendance_test.cc.
///
/// The kernels read the old Luce term M / D from the carried ratio span
/// (IntervalSoA::ratio). The references below keep the two-division
/// form, and the mass-kernel pins check that every write leaves
/// ratio[u] bit-equal to Ratio(D, M) below.
///
/// Degenerate shapes: |U|=1 (InstanceBuilder rejects |U|=0, so the
/// zero-user case is covered at the kernel level by n=0 spans), a
/// single interval, and all-users-interested dense rows.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/instance.h"
#include "core/kernels.h"
#include "core/objective.h"
#include "core/schedule.h"
#include "core/score_gen.h"
#include "core/sigma.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ses::core {
namespace {

/// Bitwise double equality: distinguishes -0.0 from 0.0 and would
/// surface NaN-payload drift, which `==` cannot.
::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<uint64_t>(a) << " vs "
         << std::bit_cast<uint64_t>(b) << ")";
}

::testing::AssertionResult BitEqF(float a, float b) {
  if (std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<uint32_t>(a) << " vs "
         << std::bit_cast<uint32_t>(b) << ")";
}

template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

/// The old Luce term, exactly as the two-division reference computes it.
double Ratio(double d, double m) { return d > 0.0 ? m / d : 0.0; }

std::vector<double> Ratios(const std::vector<double>& denom,
                           const std::vector<double>& sched_mass) {
  std::vector<double> ratio(denom.size());
  for (size_t u = 0; u < denom.size(); ++u) {
    ratio[u] = Ratio(denom[u], sched_mass[u]);
  }
  return ratio;
}

/// Every user's carried ratio bit-equals Ratio(D, M). Untouched users
/// have D = M = 0, so they must hold the zero the expression gives.
void ExpectRatiosCarried(const std::vector<double>& denom,
                         const std::vector<double>& sched_mass,
                         const std::vector<double>& ratio, uint64_t seed) {
  for (size_t u = 0; u < denom.size(); ++u) {
    EXPECT_TRUE(BitEq(ratio[u], Ratio(denom[u], sched_mass[u])))
        << "seed " << seed << " u=" << u;
  }
}

/// The scalar reference implementations: these are the pre-kernel
/// loops from attendance.cc, kept verbatim so the harness can detect
/// any numeric drift a future kernel rewrite introduces.
namespace ref {

double LuceGain(const std::vector<UserIndex>& users,
                const std::vector<float>& values,
                const std::vector<double>& denom,
                const std::vector<double>& sched_mass,
                const std::vector<float>& sigma) {
  double gain = 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    const UserIndex u = users[i];
    const double x = static_cast<double>(values[i]);
    const double d = denom[u];
    const double m = sched_mass[u];
    const double term_new = (m + x) / (d + x);
    const double term_old = d > 0.0 ? m / d : 0.0;
    gain += static_cast<double>(sigma[u]) * (term_new - term_old);
  }
  return gain;
}

void AddMass(const std::vector<UserIndex>& users,
             const std::vector<float>& values, std::vector<double>& denom) {
  for (size_t i = 0; i < users.size(); ++i) {
    denom[users[i]] += static_cast<double>(values[i]);
  }
}

void TouchMass(const std::vector<UserIndex>& users,
               const std::vector<float>& values, double sign,
               std::vector<double>& denom, std::vector<double>& sched_mass) {
  for (size_t i = 0; i < users.size(); ++i) {
    const UserIndex u = users[i];
    const double mu = sign * static_cast<double>(values[i]);
    denom[u] += mu;
    sched_mass[u] += mu;
    if (denom[u] < 0.0) denom[u] = 0.0;
    if (sched_mass[u] < 0.0) sched_mass[u] = 0.0;
  }
}

}  // namespace ref

/// One random sparse row over `num_users` users: sorted unique user
/// indices with interest values in the instance-realistic range.
struct SparseRow {
  std::vector<UserIndex> users;
  std::vector<float> values;
};

SparseRow RandomRow(util::Rng& rng, uint32_t num_users, double density) {
  SparseRow row;
  for (UserIndex u = 0; u < num_users; ++u) {
    if (rng.Bernoulli(density)) {
      row.users.push_back(u);
      row.values.push_back(static_cast<float>(rng.UniformDouble(0.05, 1.0)));
    }
  }
  return row;
}

/// Random dense per-user state with realistic structure: a fraction of
/// users has zero mass (exercises the D == 0 branches) and M <= D.
void RandomState(util::Rng& rng, uint32_t num_users,
                 std::vector<double>& denom, std::vector<double>& sched_mass,
                 std::vector<float>& sigma) {
  denom.assign(num_users, 0.0);
  sched_mass.assign(num_users, 0.0);
  sigma.assign(num_users, 0.0f);
  for (UserIndex u = 0; u < num_users; ++u) {
    sigma[u] = static_cast<float>(rng.UniformDouble(0.0, 1.0));
    if (rng.Bernoulli(0.3)) continue;  // untouched user: D = M = 0
    const double c = rng.UniformDouble(0.0, 3.0);
    const double m = rng.Bernoulli(0.5) ? rng.UniformDouble(0.0, 2.0) : 0.0;
    denom[u] = c + m;
    sched_mass[u] = m;
  }
}

// ---------------------------------------------------------------------------
// Tier 1: every kernel vs its scalar reference, bit-identical, over raw
// arrays (seed-swept; n == 0 rows cover the |U| = 0 degenerate shape).
// ---------------------------------------------------------------------------

TEST(KernelDiffTest, LuceGainBitIdenticalToReference) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    const uint32_t num_users = seed == 0 ? 1 : 1 + rng.NextBounded(200);
    std::vector<double> denom, sched;
    std::vector<float> sigma;
    RandomState(rng, num_users, denom, sched, sigma);
    // density 0.0 on the first seed gives the empty row (n == 0).
    const double density = seed == 0 ? 0.0 : rng.UniformDouble(0.1, 1.0);
    const SparseRow row = RandomRow(rng, num_users, density);

    const std::vector<double> ratio = Ratios(denom, sched);
    const double kernel = kernels::LuceGain(
        row.users.data(), row.values.data(), row.users.size(), denom.data(),
        sched.data(), ratio.data(), sigma.data());
    const double reference =
        ref::LuceGain(row.users, row.values, denom, sched, sigma);
    EXPECT_TRUE(BitEq(kernel, reference)) << "seed " << seed;
  }
}

/// LuceGain's sum with every product rounded on its own: a volatile
/// store is a rounding no compiler can fuse into the add that follows.
double UnfusedLuceGain(const SparseRow& row, const std::vector<double>& denom,
                       const std::vector<double>& sched_mass,
                       const std::vector<double>& ratio,
                       const std::vector<float>& sigma) {
  double gain = 0.0;
  for (size_t i = 0; i < row.users.size(); ++i) {
    const UserIndex u = row.users[i];
    const double x = static_cast<double>(row.values[i]);
    const double term_new = (sched_mass[u] + x) / (denom[u] + x);
    volatile double product =
        static_cast<double>(sigma[u]) * (term_new - ratio[u]);
    gain = gain + product;
  }
  return gain;
}

/// The same sum with each multiply-add fused, as contraction compiles
/// it on a target with FMA.
double FusedLuceGain(const SparseRow& row, const std::vector<double>& denom,
                     const std::vector<double>& sched_mass,
                     const std::vector<double>& ratio,
                     const std::vector<float>& sigma) {
  double gain = 0.0;
  for (size_t i = 0; i < row.users.size(); ++i) {
    const UserIndex u = row.users[i];
    const double x = static_cast<double>(row.values[i]);
    const double term_new = (sched_mass[u] + x) / (denom[u] + x);
    gain = std::fma(static_cast<double>(sigma[u]), term_new - ratio[u], gain);
  }
  return gain;
}

// ref::LuceGain is compiled with the kernel's flags, so a build that
// contracts `gain += sigma * (...)` into an FMA fuses both alike and
// the pin above still holds. This expected value cannot be fused, and
// on most of these rows fusing changes the result, so a build without
// -ffp-contract=off on an FMA target fails here.
TEST(KernelDiffTest, LuceGainUnfusedWhereFusingDiffers) {
  size_t fused_differs = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    util::Rng rng(seed);
    // Short rows: while the sum is still of a product's magnitude, the
    // product's own rounding decides the sum's last bit.
    const uint32_t num_users = 8;
    std::vector<double> denom, sched;
    std::vector<float> sigma;
    RandomState(rng, num_users, denom, sched, sigma);
    const SparseRow row = RandomRow(rng, num_users, 0.5);
    const std::vector<double> ratio = Ratios(denom, sched);

    const double unfused = UnfusedLuceGain(row, denom, sched, ratio, sigma);
    fused_differs +=
        !BitEq(unfused, FusedLuceGain(row, denom, sched, ratio, sigma));
    EXPECT_TRUE(BitEq(kernels::LuceGain(row.users.data(), row.values.data(),
                                        row.users.size(), denom.data(),
                                        sched.data(), ratio.data(),
                                        sigma.data()),
                      unfused))
        << "seed " << seed;
  }
  EXPECT_GE(fused_differs, 10u);
}

TEST(KernelDiffTest, LuceGainBlockBitIdenticalToReference) {
  constexpr size_t kWidth = IntervalBlock::kWidth;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    const uint32_t num_users = seed == 0 ? 1 : 1 + rng.NextBounded(200);
    // Per-lane state with M = 0: a lane is one interval with no
    // scheduled event, D its competing mass (0 for some users).
    std::vector<std::vector<double>> lane_denom(kWidth);
    std::vector<std::vector<float>> lane_sigma(kWidth);
    for (size_t lane = 0; lane < kWidth; ++lane) {
      std::vector<double> unused_sched;
      RandomState(rng, num_users, lane_denom[lane], unused_sched,
                  lane_sigma[lane]);
    }
    const double density = seed == 0 ? 0.0 : rng.UniformDouble(0.1, 1.0);
    const SparseRow row = RandomRow(rng, num_users, density);
    const std::vector<double> zeros(num_users, 0.0);

    // Every width a block takes, partial ones included: the lanes past
    // `width` keep D = 0 and sigma = 0 and must give finite zeros.
    for (size_t width = 1; width <= kWidth; ++width) {
      IntervalBlock block(num_users);
      for (UserIndex u = 0; u < num_users; ++u) {
        for (size_t lane = 0; lane < width; ++lane) {
          block.denom[u * kWidth + lane] = lane_denom[lane][u];
          block.sigma[u * kWidth + lane] = lane_sigma[lane][u];
        }
      }
      double out[kWidth] = {};
      kernels::LuceGainBlock(row.users.data(), row.values.data(),
                             row.users.size(), block.denom.data(),
                             block.sigma.data(), out);
      for (size_t lane = 0; lane < kWidth; ++lane) {
        const double reference =
            lane < width ? ref::LuceGain(row.users, row.values,
                                         lane_denom[lane], zeros,
                                         lane_sigma[lane])
                         : 0.0;
        EXPECT_TRUE(BitEq(out[lane], reference))
            << "seed " << seed << " width " << width << " lane " << lane;
      }
    }
  }
}

TEST(KernelDiffTest, LuceGainRowsBitIdenticalToReference) {
  constexpr size_t kRows = kernels::kGainRows;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    const uint32_t num_users = 100 + rng.NextBounded(300);
    std::vector<double> denom, sched;
    std::vector<float> sigma;
    RandomState(rng, num_users, denom, sched, sigma);
    ASSERT_NE(std::count(denom.begin(), denom.end(), 0.0), 0);
    ASSERT_NE(std::count(sched.begin(), sched.end(), 0.0),
              static_cast<ptrdiff_t>(num_users));
    const std::vector<double> ratio = Ratios(denom, sched);
    // Rows of unequal length: empty, one entry, then four of up to a
    // few hundred. Each window of kRows consecutive rows, cyclically,
    // is one group: the empty and the one-entry row take every
    // position, and the window of the four long rows runs the shared
    // loop and then a tail on each row longer than the shortest.
    std::vector<SparseRow> pool(2);
    pool[1].users.push_back(rng.NextBounded(num_users));
    pool[1].values.push_back(0.5f);
    for (size_t i = 0; i < kRows; ++i) {
      pool.push_back(RandomRow(rng, num_users, rng.UniformDouble(0.1, 1.0)));
    }
    for (size_t first = 0; first < pool.size(); ++first) {
      const UserIndex* users[kRows];
      const float* values[kRows];
      size_t sizes[kRows];
      for (size_t r = 0; r < kRows; ++r) {
        const SparseRow& row = pool[(first + r) % pool.size()];
        users[r] = row.users.data();
        values[r] = row.values.data();
        sizes[r] = row.users.size();
      }
      double out[kRows];
      kernels::LuceGainRows(users, values, sizes, denom.data(), sched.data(),
                            ratio.data(), sigma.data(), out);
      for (size_t r = 0; r < kRows; ++r) {
        const SparseRow& row = pool[(first + r) % pool.size()];
        EXPECT_TRUE(BitEq(out[r], ref::LuceGain(row.users, row.values, denom,
                                                sched, sigma)))
            << "seed " << seed << " group " << first << " row " << r
            << " of length " << row.users.size();
      }
    }
  }
}

TEST(KernelDiffTest, AddMassBitIdenticalToReference) {
  constexpr size_t kWidth = IntervalBlock::kWidth;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    const uint32_t num_users = 1 + rng.NextBounded(100);
    // Each lane folds several overlapping rows, as LoadInterval and
    // LoadBlock fold an interval's competing rows into one scratch: at
    // stride 1 into its own |U| span, and at stride kWidth into its
    // lane of one interleaved span shared by all lanes.
    std::vector<std::vector<double>> ref_denom(
        kWidth, std::vector<double>(num_users, 0.0));
    std::vector<double> interleaved(num_users * kWidth, 0.0);
    for (size_t lane = 0; lane < kWidth; ++lane) {
      std::vector<double> denom(num_users, 0.0);
      for (int r = 0; r < 4; ++r) {
        const SparseRow row =
            RandomRow(rng, num_users, rng.UniformDouble(0.0, 0.8));
        ref::AddMass(row.users, row.values, ref_denom[lane]);
        kernels::AddMass(row.users.data(), row.values.data(),
                         row.users.size(), 1, denom.data());
        kernels::AddMass(row.users.data(), row.values.data(),
                         row.users.size(), kWidth,
                         interleaved.data() + lane);
      }
      for (UserIndex u = 0; u < num_users; ++u) {
        EXPECT_TRUE(BitEq(denom[u], ref_denom[lane][u]))
            << "seed " << seed << " u=" << u;
      }
    }
    for (UserIndex u = 0; u < num_users; ++u) {
      for (size_t lane = 0; lane < kWidth; ++lane) {
        EXPECT_TRUE(BitEq(interleaved[u * kWidth + lane], ref_denom[lane][u]))
            << "seed " << seed << " u=" << u << " lane " << lane;
      }
    }
  }
}

TEST(KernelDiffTest, TouchMassBitIdenticalToReference) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    const uint32_t num_users = 1 + rng.NextBounded(100);
    std::vector<double> ref_denom(num_users, 0.0);
    std::vector<double> ref_sched(num_users, 0.0);
    std::vector<double> soa_denom(num_users, 0.0);
    std::vector<double> soa_sched(num_users, 0.0);
    std::vector<double> soa_ratio(num_users, 0.0);

    // Competing mass first, as in a loaded interval, so D and M differ.
    const SparseRow competing = RandomRow(rng, num_users, 0.5);
    ref::AddMass(competing.users, competing.values, ref_denom);
    kernels::AddMass(competing.users.data(), competing.values.data(),
                     competing.users.size(), 1, soa_denom.data());

    // Apply/unapply churn: add rows, remove some of them again — the
    // remove path exercises the negative-residue clamps.
    std::vector<SparseRow> applied;
    for (int step = 0; step < 6; ++step) {
      const bool remove = !applied.empty() && rng.Bernoulli(0.4);
      SparseRow row;
      double sign;
      if (remove) {
        row = applied.back();
        applied.pop_back();
        sign = -1.0;
      } else {
        row = RandomRow(rng, num_users, rng.UniformDouble(0.1, 0.8));
        applied.push_back(row);
        sign = +1.0;
      }
      ref::TouchMass(row.users, row.values, sign, ref_denom, ref_sched);
      kernels::TouchMass(row.users.data(), row.values.data(),
                         row.users.size(), sign, soa_denom.data(),
                         soa_sched.data(), soa_ratio.data());
      ExpectRatiosCarried(soa_denom, soa_sched, soa_ratio, seed);
    }

    for (UserIndex u = 0; u < num_users; ++u) {
      EXPECT_TRUE(BitEq(soa_denom[u], ref_denom[u])) << "seed " << seed;
      EXPECT_TRUE(BitEq(soa_sched[u], ref_sched[u])) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Tier 1b: sigma fill kernels vs per-element evaluation, bit-identical,
// for every provider (the base-class fallback included).
// ---------------------------------------------------------------------------

TEST(KernelDiffTest, SigmaFillKernelsBitIdenticalToPerElement) {
  const uint32_t num_users = 157;  // deliberately not a SIMD multiple
  std::vector<float> bulk(num_users);

  for (uint64_t seed : {1ULL, 99ULL, 0xDEADBEEFULL}) {
    for (IntervalIndex t = 0; t < 4; ++t) {
      kernels::FillSigmaHash(seed, t, bulk);
      for (UserIndex u = 0; u < num_users; ++u) {
        EXPECT_TRUE(BitEqF(
            bulk[u], static_cast<float>(kernels::HashSigma(seed, u, t))));
      }
    }
  }

  kernels::FillSigmaConst(0.37f, bulk);
  for (float v : bulk) EXPECT_TRUE(BitEqF(v, 0.37f));

  util::Rng rng(3);
  std::vector<float> dense_row(num_users);
  for (float& v : dense_row) {
    v = static_cast<float>(rng.UniformDouble(0.0, 1.0));
  }
  kernels::CopySigmaRow(dense_row, bulk);
  for (UserIndex u = 0; u < num_users; ++u) {
    EXPECT_TRUE(BitEqF(bulk[u], dense_row[u]));
  }

  // n == 0 spans are valid no-ops for every fill.
  std::span<float> empty;
  kernels::FillSigmaHash(1, 0, empty);
  kernels::FillSigmaConst(0.5f, empty);
  kernels::CopySigmaRow(dense_row, empty);
}

// ---------------------------------------------------------------------------
// Tier 2: the kernel-backed AttendanceModel vs a scalar from-scratch
// recompute, bit-identical, swept over sigma providers × shapes ×
// seeds.
// ---------------------------------------------------------------------------

enum class SigmaKind { kConst, kDense, kHashUniform };

const char* Name(SigmaKind kind) {
  switch (kind) {
    case SigmaKind::kConst: return "Const";
    case SigmaKind::kDense: return "Dense";
    case SigmaKind::kHashUniform: return "HashUniform";
  }
  return "?";
}

/// MakeRandomInstance with a selectable sigma provider (the shared
/// helper is hard-wired to HashUniformSigma).
SesInstance MakeInstanceWithSigma(const test::RandomInstanceConfig& config,
                                  SigmaKind kind) {
  util::Rng rng(config.seed);
  InstanceBuilder builder;
  builder.SetNumUsers(config.num_users)
      .SetNumIntervals(config.num_intervals)
      .SetTheta(config.theta);
  switch (kind) {
    case SigmaKind::kConst:
      builder.SetSigma(std::make_shared<ConstSigma>(0.6));
      break;
    case SigmaKind::kDense: {
      std::vector<std::vector<float>> rows(
          config.num_intervals, std::vector<float>(config.num_users));
      for (auto& row : rows) {
        for (float& v : row) {
          v = static_cast<float>(rng.UniformDouble(0.0, 1.0));
        }
      }
      builder.SetSigma(std::make_shared<DenseSigma>(std::move(rows)));
      break;
    }
    case SigmaKind::kHashUniform:
      builder.SetSigma(std::make_shared<HashUniformSigma>(config.seed));
      break;
  }

  auto random_row = [&rng, &config] {
    std::vector<std::pair<UserIndex, float>> row;
    for (UserIndex u = 0; u < config.num_users; ++u) {
      if (rng.Bernoulli(config.interest_density)) {
        row.push_back({u, static_cast<float>(rng.UniformDouble(0.05, 1.0))});
      }
    }
    return row;
  };
  // With config.twins, event e + ceil(|E| / 2) repeats event e's row.
  const uint32_t pairs = (config.num_events + 1) / 2;
  std::vector<std::vector<std::pair<UserIndex, float>>> rows;
  for (uint32_t e = 0; e < config.num_events; ++e) {
    const auto location =
        static_cast<LocationId>(rng.NextBounded(config.num_locations));
    const double xi = rng.UniformDouble(config.xi_min, config.xi_max);
    rows.push_back(config.twins && e >= pairs ? rows[e - pairs]
                                              : random_row());
    builder.AddEvent(location, xi, rows.back());
  }
  for (uint32_t t = 0; t < config.num_intervals; ++t) {
    const int count = util::PoissonSample(rng, config.competing_per_interval);
    for (int c = 0; c < count; ++c) builder.AddCompetingEvent(t, random_row());
  }
  auto instance = builder.Build();
  SES_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

/// Scalar from-scratch recompute of MarginalGain(e, t): rebuilds D/M by
/// the reference accumulation loops in the exact order LoadInterval
/// folds rows (competing rows in CompetingAt order, then scheduled
/// events in EventsAt order), then sums the reference gain loop.
double RefMarginalGain(const SesInstance& instance, const Schedule& schedule,
                       EventIndex e, IntervalIndex t) {
  const uint32_t num_users = instance.num_users();
  std::vector<double> denom(num_users, 0.0);
  std::vector<double> sched(num_users, 0.0);
  for (CompetingIndex c : instance.CompetingAt(t)) {
    ref::AddMass(ToVec(instance.CompetingUsers(c)),
                 ToVec(instance.CompetingValues(c)), denom);
  }
  for (EventIndex p : schedule.EventsAt(t)) {
    ref::TouchMass(ToVec(instance.EventUsers(p)),
                   ToVec(instance.EventValues(p)), +1.0, denom, sched);
  }
  std::vector<float> sigma(num_users);
  instance.sigma().FillInterval(t, sigma);
  return ref::LuceGain(ToVec(instance.EventUsers(e)),
                       ToVec(instance.EventValues(e)), denom, sched, sigma);
}

/// Drives one instance: applies a few assignments, unapplies every
/// other one, then sweeps every unassigned (e, t) cell twice comparing
/// the model bitwise against the scalar recompute and within tolerance
/// against the objective.h oracle.
void RunModelDiff(const SesInstance& instance, uint64_t seed,
                  const char* label) {
  AttendanceModel model(instance);
  auto expect_cell = [&](EventIndex e, IntervalIndex t) {
    const double fast = model.MarginalGain(e, t);
    const double scalar = RefMarginalGain(instance, model.schedule(), e, t);
    EXPECT_TRUE(BitEq(fast, scalar))
        << label << " seed " << seed << " e=" << e << " t=" << t;
    // Tolerance tier: the oracle associates differently, so compare
    // relatively at the pre-existing 1e-6 pin.
    const double oracle = AssignmentScore(instance, model.schedule(), e, t);
    const double denom_tol = std::max(1.0, std::abs(fast));
    EXPECT_NEAR(fast, oracle, 1e-6 * denom_tol)
        << label << " seed " << seed << " e=" << e << " t=" << t;
  };

  util::Rng rng(seed ^ 0xABCDULL);
  // Apply up to half the events wherever feasible, so the sweep sees
  // non-trivial scheduled mass (M > 0) in most intervals.
  std::vector<EventIndex> applied;
  for (EventIndex e = 0; e < instance.num_events(); e += 2) {
    const IntervalIndex t =
        static_cast<IntervalIndex>(rng.NextBounded(instance.num_intervals()));
    if (model.CanAssign(e, t)) {
      model.Apply(e, t);
      applied.push_back(e);
    }
  }
  // Unapply every other applied event and rescore it at once, while its
  // interval is still loaded: the gain then reads the D, M and ratio
  // that TouchMass(-1) and its clamps left behind.
  for (size_t i = 0; i < applied.size(); i += 2) {
    const IntervalIndex t = model.schedule().IntervalOf(applied[i]);
    model.Unapply(applied[i]);
    expect_cell(applied[i], t);
  }

  // Two sweeps: every interval is reloaded from the instance, with the
  // scheduled rows folded on top of the competing masses.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (EventIndex e = 0; e < instance.num_events(); ++e) {
        if (!model.schedule().IsAssigned(e)) expect_cell(e, t);
      }
    }
  }
}

TEST(KernelDiffTest, ModelMatchesScalarRecomputeAcrossSigmaProviders) {
  for (const SigmaKind kind :
       {SigmaKind::kConst, SigmaKind::kDense, SigmaKind::kHashUniform}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      test::RandomInstanceConfig config;
      config.seed = seed;
      SesInstance instance = MakeInstanceWithSigma(config, kind);
      RunModelDiff(instance, seed, Name(kind));
    }
  }
}

TEST(KernelDiffTest, ModelMatchesScalarRecomputeOnDegenerateShapes) {
  // |U| = 1: every row is either empty or the single user.
  // (|U| = 0 is rejected by InstanceBuilder — covered at kernel level
  // by the n == 0 sweeps above.)
  {
    test::RandomInstanceConfig config;
    config.num_users = 1;
    config.interest_density = 1.0;
    SesInstance instance =
        MakeInstanceWithSigma(config, SigmaKind::kHashUniform);
    RunModelDiff(instance, config.seed, "single-user");
  }
  // Single interval: every event competes for the same scratch; the
  // model never reloads, so the sweep runs against TouchLoaded-updated
  // state rather than fresh folds.
  {
    test::RandomInstanceConfig config;
    config.num_intervals = 1;
    SesInstance instance = MakeInstanceWithSigma(config, SigmaKind::kDense);
    RunModelDiff(instance, config.seed, "single-interval");
  }
  // All users interested in everything: dense rows, no D == 0 cells
  // once anything is scheduled.
  {
    test::RandomInstanceConfig config;
    config.interest_density = 1.0;
    SesInstance instance = MakeInstanceWithSigma(config, SigmaKind::kConst);
    RunModelDiff(instance, config.seed, "all-interested");
  }
}

// ---------------------------------------------------------------------------
// Tier 3: the interval-blocked score grid stays bit-identical across
// thread counts, and bit-equal to a per-pair MarginalGain sweep.
// ---------------------------------------------------------------------------

TEST(KernelDiffTest, ShardedScoreGenerationBitIdenticalAcrossThreads) {
  const SesInstance instance = test::MakeMediumInstance(11);
  const size_t cells = static_cast<size_t>(instance.num_events()) *
                       instance.num_intervals();
  SolveContext context;

  std::vector<double> serial(cells, 0.0);
  {
    SolverOptions options;
    options.threads = 1;
    const ScoreGenResult result =
        GenerateAssignmentScores(instance, options, context, serial);
    ASSERT_TRUE(result.termination.ok());
  }
  std::vector<double> sharded(cells, 0.0);
  {
    SolverOptions options;
    options.threads = 4;
    const ScoreGenResult result =
        GenerateAssignmentScores(instance, options, context, sharded);
    ASSERT_TRUE(result.termination.ok());
  }
  for (size_t i = 0; i < cells; ++i) {
    EXPECT_TRUE(BitEq(serial[i], sharded[i])) << "cell " << i;
  }
}

/// A warm start for the grid pin: one feasible event at each interval
/// \p pick selects, the lowest event index that fits there, or with
/// \p from_last the highest.
std::vector<Assignment> WarmStartAt(const SesInstance& instance,
                                    bool (*pick)(IntervalIndex t,
                                                 IntervalIndex num),
                                    bool from_last) {
  AttendanceModel model(instance);
  std::vector<Assignment> warm;
  const IntervalIndex num = instance.num_intervals();
  const EventIndex num_events = instance.num_events();
  for (IntervalIndex t = 0; t < num; ++t) {
    if (!pick(t, num)) continue;
    for (EventIndex i = 0; i < num_events; ++i) {
      const EventIndex e = from_last ? num_events - 1 - i : i;
      if (!model.CanAssign(e, t)) continue;
      model.Apply(e, t);
      warm.push_back({e, t});
      break;
    }
  }
  return warm;
}

// The grid every greedy solver reads, pinned against an independent
// path: each unassigned cell bit-equals MarginalGain on a fresh model
// holding the warm start, at every shard count, and a completed fill
// counts one evaluation per interval and distinct profile among the
// unassigned events. The |T| values and warm starts give full blocks,
// partial blocks at shard tails, and blocks gathered across
// warm-started intervals (which take the model path, the only one
// exact for M != 0). On the twin instances (event e + 6 repeats event
// e's row) the lowest-index warm starts take representatives, so their
// twins must be scored themselves, and the highest-index ones take
// twins whose representatives stay unassigned.
TEST(KernelDiffTest, ScoreGridMatchesPerPairSweep) {
  using Pick = bool (*)(IntervalIndex, IntervalIndex);
  struct WarmCase {
    const char* name;
    Pick pick;
    bool from_last;
  };
  const WarmCase warm_cases[] = {
      {"none", [](IntervalIndex, IntervalIndex) { return false; }, false},
      {"one", [](IntervalIndex t, IntervalIndex n) { return t == n / 2; },
       false},
      {"adjacent",
       [](IntervalIndex t, IntervalIndex n) {
         return t == (n - 1) / 2 || t == (n - 1) / 2 + 1;
       },
       false},
      {"every-third", [](IntervalIndex t, IntervalIndex) { return t % 3 == 0; },
       false},
      {"every-third-from-last",
       [](IntervalIndex t, IntervalIndex) { return t % 3 == 0; }, true},
  };
  constexpr double kSentinel = -1234.5;
  for (const bool twins : {false, true}) {
    for (const SigmaKind kind :
         {SigmaKind::kConst, SigmaKind::kDense, SigmaKind::kHashUniform}) {
      for (const uint32_t num_intervals : {1u, 2u, 3u, 5u, 6u, 9u}) {
        test::RandomInstanceConfig config;
        config.num_users = 60;
        config.num_events = 12;
        config.num_intervals = num_intervals;
        config.seed = 7 + num_intervals;
        config.twins = twins;
        const SesInstance instance = MakeInstanceWithSigma(config, kind);
        const size_t num_events = instance.num_events();
        for (const WarmCase& warm_case : warm_cases) {
          const std::vector<Assignment> warm =
              WarmStartAt(instance, warm_case.pick, warm_case.from_last);
          AttendanceModel model(test::Replay(instance, warm));
          std::vector<bool> scored(instance.num_profiles(), false);
          uint64_t profiles = 0;
          for (EventIndex e = 0; e < num_events; ++e) {
            if (model.schedule().IsAssigned(e)) continue;
            if (!scored[instance.EventProfile(e)]) ++profiles;
            scored[instance.EventProfile(e)] = true;
          }
          EXPECT_EQ(profiles, twins ? 6u : num_events - warm.size());
          for (const int threads : {1, 2, 3, 0}) {
            SCOPED_TRACE(std::string(Name(kind)) + (twins ? " twins" : "") +
                         " |T|=" + std::to_string(num_intervals) +
                         " warm " + warm_case.name + " threads " +
                         std::to_string(threads));
            SolverOptions options;
            options.threads = threads;
            options.warm_start = warm;
            std::vector<double> grid(num_events * num_intervals, kSentinel);
            const ScoreGenResult result = GenerateAssignmentScores(
                instance, options, SolveContext(), grid);
            ASSERT_TRUE(result.termination.ok());
            EXPECT_EQ(result.gain_evaluations, profiles * num_intervals);
            for (IntervalIndex t = 0; t < num_intervals; ++t) {
              for (EventIndex e = 0; e < num_events; ++e) {
                const double cell = grid[t * num_events + e];
                const double expected = model.schedule().IsAssigned(e)
                                            ? kSentinel
                                            : model.MarginalGain(e, t);
                EXPECT_TRUE(BitEq(cell, expected)) << "e=" << e << " t=" << t;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ses::core
