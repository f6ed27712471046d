#ifndef SES_TESTS_TEST_UTIL_H_
#define SES_TESTS_TEST_UTIL_H_

/// \file
/// Shared helpers for building small SES instances in tests.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/sigma.h"
#include "util/logging.h"
#include "util/random.h"

namespace ses::test {

/// Knobs for random small instances used by property tests.
struct RandomInstanceConfig {
  uint32_t num_users = 30;
  uint32_t num_events = 8;
  uint32_t num_intervals = 4;
  uint32_t num_locations = 3;
  double theta = 10.0;
  double xi_min = 1.0;
  double xi_max = 4.0;
  double interest_density = 0.4;  ///< P(user interested in an event)
  double competing_per_interval = 2.0;
  uint64_t seed = 42;
  /// Events e and e + ceil(|E| / 2) share one interest row: twin events,
  /// the trivial bicliques of the interest graph. Twins score exactly
  /// alike at every interval, so exact score ties are common.
  bool twins = false;
};

/// Builds a random, fully-validated small instance.
inline core::SesInstance MakeRandomInstance(
    const RandomInstanceConfig& config) {
  util::Rng rng(config.seed);
  core::InstanceBuilder builder;
  builder.SetNumUsers(config.num_users)
      .SetNumIntervals(config.num_intervals)
      .SetTheta(config.theta)
      .SetSigma(std::make_shared<core::HashUniformSigma>(config.seed));

  auto random_row = [&rng, &config] {
    std::vector<std::pair<core::UserIndex, float>> row;
    for (core::UserIndex u = 0; u < config.num_users; ++u) {
      if (rng.Bernoulli(config.interest_density)) {
        row.push_back(
            {u, static_cast<float>(rng.UniformDouble(0.05, 1.0))});
      }
    }
    return row;
  };

  const uint32_t pairs = (config.num_events + 1) / 2;
  std::vector<std::vector<std::pair<core::UserIndex, float>>> rows;
  for (uint32_t e = 0; e < config.num_events; ++e) {
    const core::LocationId location = static_cast<core::LocationId>(
        rng.NextBounded(config.num_locations));
    const double xi = rng.UniformDouble(config.xi_min, config.xi_max);
    if (config.twins && e >= pairs) {
      builder.AddEvent(location, xi, rows[e - pairs]);
      continue;
    }
    rows.push_back(random_row());
    builder.AddEvent(location, xi, rows.back());
  }
  for (uint32_t t = 0; t < config.num_intervals; ++t) {
    const int count = util::PoissonSample(rng, config.competing_per_interval);
    for (int c = 0; c < count; ++c) {
      builder.AddCompetingEvent(t, random_row());
    }
  }
  auto instance = builder.Build();
  SES_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

/// The medium preset shared by the api-layer suites (scheduler, session
/// cache, stress): big enough that solves do measurable work, small
/// enough for sanitizer CI. Centralized here so every suite exercises
/// the same shape instead of hand-rolling near-duplicates.
inline RandomInstanceConfig MediumInstanceConfig(uint64_t seed = 42) {
  RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 60;
  config.num_events = 20;
  config.num_intervals = 8;
  config.theta = 15.0;
  return config;
}

/// \p pairs twin pairs (events e and e + pairs) in which every gain
/// ties: each pair has its own single user, events have distinct
/// locations and ample resources, sigma is constant and nothing
/// competes. Every gain at an interval without the event's twin is
/// exactly 1.0, and exactly 0 where the twin sits.
inline core::SesInstance MakeAllTiedInstance(uint32_t pairs,
                                             uint32_t intervals) {
  core::InstanceBuilder builder;
  builder.SetNumUsers(pairs)
      .SetNumIntervals(intervals)
      .SetTheta(2.0 * pairs)
      .SetSigma(std::make_shared<core::ConstSigma>(1.0));
  for (core::EventIndex e = 0; e < 2 * pairs; ++e) {
    builder.AddEvent(e, 1.0, {{e % pairs, 0.5f}});
  }
  auto instance = builder.Build();
  SES_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

/// Builds the medium preset directly.
inline core::SesInstance MakeMediumInstance(uint64_t seed = 42) {
  return MakeRandomInstance(MediumInstanceConfig(seed));
}

/// The schedule \p assignments replay to, in order; aborts when one
/// does not apply.
inline core::Schedule Replay(const core::SesInstance& instance,
                             std::span<const core::Assignment> assignments) {
  core::Schedule schedule(instance);
  SES_CHECK(core::ApplyWarmStart(schedule, assignments).ok());
  return schedule;
}

}  // namespace ses::test

#endif  // SES_TESTS_TEST_UTIL_H_
