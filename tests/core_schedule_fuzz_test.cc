/// Randomized differential test: drive Schedule with random
/// assign/unassign sequences and mirror every operation against a naive
/// reference model; all observable state must agree at every step. Also
/// cross-checks AttendanceModel's tracked utility against the reference
/// objective along the same random walks.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/objective.h"
#include "core/schedule.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ses::core {
namespace {

/// Deliberately naive re-implementation of the schedule rules.
class ReferenceSchedule {
 public:
  explicit ReferenceSchedule(const SesInstance& instance)
      : instance_(&instance) {}

  bool CanAssign(EventIndex e, IntervalIndex t) const {
    if (e >= instance_->num_events() || t >= instance_->num_intervals()) {
      return false;
    }
    if (placement_.count(e) > 0) return false;
    double used = instance_->event(e).required_resources;
    for (const auto& [other, interval] : placement_) {
      if (interval != t) continue;
      if (instance_->event(other).location ==
          instance_->event(e).location) {
        return false;
      }
      used += instance_->event(other).required_resources;
    }
    return used <= instance_->theta();
  }

  bool Assign(EventIndex e, IntervalIndex t) {
    if (!CanAssign(e, t)) return false;
    placement_[e] = t;
    return true;
  }

  bool Unassign(EventIndex e) { return placement_.erase(e) > 0; }

  size_t size() const { return placement_.size(); }

  std::set<EventIndex> EventsAt(IntervalIndex t) const {
    std::set<EventIndex> out;
    for (const auto& [e, interval] : placement_) {
      if (interval == t) out.insert(e);
    }
    return out;
  }

 private:
  const SesInstance* instance_;
  std::map<EventIndex, IntervalIndex> placement_;
};

class ScheduleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleFuzzTest, ScheduleAgreesWithReferenceModel) {
  test::RandomInstanceConfig config;
  config.seed = GetParam();
  config.num_users = 15;
  config.num_events = 10;
  config.num_intervals = 4;
  config.theta = 7.0;  // tight: feasibility rejections happen often
  const SesInstance instance = test::MakeRandomInstance(config);

  Schedule schedule(instance);
  ReferenceSchedule reference(instance);
  util::Rng rng(GetParam() * 101 + 13);

  for (int step = 0; step < 500; ++step) {
    const EventIndex e =
        static_cast<EventIndex>(rng.NextBounded(instance.num_events()));
    const IntervalIndex t = static_cast<IntervalIndex>(
        rng.NextBounded(instance.num_intervals()));
    if (rng.Bernoulli(0.7)) {
      const bool expected = reference.CanAssign(e, t);
      ASSERT_EQ(schedule.CanAssign(e, t), expected)
          << "step " << step << " CanAssign(" << e << "," << t << ")";
      const bool reference_ok = reference.Assign(e, t);
      ASSERT_EQ(schedule.Assign(e, t).ok(), reference_ok) << "step " << step;
    } else {
      const bool reference_ok = reference.Unassign(e);
      ASSERT_EQ(schedule.Unassign(e).ok(), reference_ok) << "step " << step;
    }
    ASSERT_EQ(schedule.size(), reference.size()) << "step " << step;
    for (IntervalIndex check = 0; check < instance.num_intervals();
         ++check) {
      const auto& actual = schedule.EventsAt(check);
      ASSERT_EQ(std::set<EventIndex>(actual.begin(), actual.end()),
                reference.EventsAt(check))
          << "step " << step << " interval " << check;
    }
  }
}

TEST_P(ScheduleFuzzTest, AttendanceTrackerSurvivesRandomWalk) {
  test::RandomInstanceConfig config;
  config.seed = GetParam() + 500;
  config.num_users = 20;
  config.num_events = 8;
  config.num_intervals = 3;
  const SesInstance instance = test::MakeRandomInstance(config);

  AttendanceModel model(instance);
  util::Rng rng(GetParam() * 7 + 1);

  for (int step = 0; step < 200; ++step) {
    const EventIndex e =
        static_cast<EventIndex>(rng.NextBounded(instance.num_events()));
    if (rng.Bernoulli(0.6)) {
      const IntervalIndex t = static_cast<IntervalIndex>(
          rng.NextBounded(instance.num_intervals()));
      if (model.CanAssign(e, t)) model.Apply(e, t);
    } else if (model.schedule().IsAssigned(e)) {
      model.Unapply(e);
    }
    if (step % 20 == 0) {
      // The loaded scratch has not drifted from the schedule.
      for (EventIndex probe = 0; probe < instance.num_events(); ++probe) {
        if (model.schedule().IsAssigned(probe)) continue;
        for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
          ASSERT_NEAR(model.MarginalGain(probe, t),
                      AssignmentScore(instance, model.schedule(), probe, t),
                      1e-6)
              << "drift at step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzzTest,
                         ::testing::Values(1, 7, 42, 99, 1234));

}  // namespace
}  // namespace ses::core
