#ifndef SES_TESTS_SWEEP_TEST_UTIL_H_
#define SES_TESTS_SWEEP_TEST_UTIL_H_

/// \file
/// Shared helpers for the exp sweep tests: one small synthetic Meetup
/// dataset, k-sweep points on it, and a record comparison.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ebsn/generator.h"
#include "exp/sweep.h"

namespace ses::test {

inline const ebsn::EbsnDataset& SweepDataset() {
  static const ebsn::EbsnDataset* dataset = [] {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = 600;
    config.num_events = 300;
    config.num_groups = 40;
    config.num_tags = 60;
    config.seed = 31;
    return new ebsn::EbsnDataset(ebsn::GenerateSyntheticMeetup(config));
  }();
  return *dataset;
}

inline exp::ConfigFactory KSweepConfig() {
  return [](int64_t x, uint64_t seed) {
    exp::PaperWorkloadConfig config;
    config.k = x;
    config.competing_mean = 2.0;
    config.competing_spread = 1.0;
    config.seed = seed;
    return config;
  };
}

/// One point per k, each with its own workload seed.
inline std::vector<exp::SweepPoint> MakePoints(const std::vector<int64_t>& ks,
                                               int64_t solver_threads = 1) {
  std::vector<exp::SweepPoint> points;
  for (int64_t k : ks) {
    exp::SweepPoint point;
    point.config = KSweepConfig()(k, 100 + static_cast<uint64_t>(k));
    point.options.k = k;
    point.options.seed = 7;
    point.options.threads = solver_threads;
    point.x = k;
    points.push_back(std::move(point));
  }
  return points;
}

/// Everything but the wall-clock `seconds` measurement must match
/// bitwise, in the same order.
inline void ExpectSameRecords(const std::vector<exp::RunRecord>& expected,
                              const std::vector<exp::RunRecord>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(expected[i].solver, actual[i].solver);
    EXPECT_EQ(expected[i].x, actual[i].x);
    EXPECT_EQ(expected[i].utility, actual[i].utility);
    EXPECT_EQ(expected[i].gain_evaluations, actual[i].gain_evaluations);
    EXPECT_EQ(expected[i].assignments, actual[i].assignments);
  }
}

}  // namespace ses::test

#endif  // SES_TESTS_SWEEP_TEST_UTIL_H_
