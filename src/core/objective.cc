#include "core/objective.h"

#include <vector>

#include "util/logging.h"

namespace ses::core {

namespace {

/// Builds the per-user denominator of Eq. 1 for interval \p t as a dense
/// |U| row: sum of competing interest plus sum of scheduled interest.
std::vector<double> IntervalDenominators(const SesInstance& instance,
                                         const Schedule& schedule,
                                         IntervalIndex t) {
  std::vector<double> denom(instance.num_users(), 0.0);
  for (CompetingIndex c : instance.CompetingAt(t)) {
    auto users = instance.CompetingUsers(c);
    auto values = instance.CompetingValues(c);
    for (size_t i = 0; i < users.size(); ++i) {
      denom[users[i]] += values[i];
    }
  }
  for (EventIndex p : schedule.EventsAt(t)) {
    auto users = instance.EventUsers(p);
    auto values = instance.EventValues(p);
    for (size_t i = 0; i < users.size(); ++i) {
      denom[users[i]] += values[i];
    }
  }
  return denom;
}

}  // namespace

double AttendanceProbability(const SesInstance& instance,
                             const Schedule& schedule, UserIndex u,
                             EventIndex e) {
  const IntervalIndex t = schedule.IntervalOf(e);
  SES_CHECK_NE(t, kInvalidIndex) << "event must be assigned";
  const double mu = instance.EventInterest(e, u);
  if (mu <= 0.0) return 0.0;

  double denominator = 0.0;
  for (CompetingIndex c : instance.CompetingAt(t)) {
    denominator += instance.CompetingInterest(c, u);
  }
  for (EventIndex p : schedule.EventsAt(t)) {
    denominator += instance.EventInterest(p, u);
  }
  if (denominator <= 0.0) return 0.0;
  // SigmaProvider is the one sanctioned extension point on this path;
  // a single per-call virtual At is the reference semantics here (the
  // incremental engine amortizes it away via FillInterval instead).
  return instance.sigma().At(u, t) * mu / denominator;  // ses-lint: allow(hot-path) sanctioned SigmaProvider dispatch
}

double ExpectedAttendance(const SesInstance& instance,
                          const Schedule& schedule, EventIndex e) {
  const IntervalIndex t = schedule.IntervalOf(e);
  SES_CHECK_NE(t, kInvalidIndex) << "event must be assigned";
  const auto denom = IntervalDenominators(instance, schedule, t);

  double omega = 0.0;
  auto users = instance.EventUsers(e);
  auto values = instance.EventValues(e);
  for (size_t i = 0; i < users.size(); ++i) {
    const double d = denom[users[i]];
    if (d <= 0.0) continue;
    omega += instance.sigma().At(users[i], t) *
             static_cast<double>(values[i]) / d;
  }
  return omega;
}

double TotalUtility(const SesInstance& instance, const Schedule& schedule) {
  double total = 0.0;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    const auto& events = schedule.EventsAt(t);
    if (events.empty()) continue;
    const auto denom = IntervalDenominators(instance, schedule, t);
    for (EventIndex e : events) {
      auto users = instance.EventUsers(e);
      auto values = instance.EventValues(e);
      for (size_t i = 0; i < users.size(); ++i) {
        const double d = denom[users[i]];
        if (d <= 0.0) continue;
        total += instance.sigma().At(users[i], t) *
                 static_cast<double>(values[i]) / d;
      }
    }
  }
  return total;
}

double AssignmentScore(const SesInstance& instance, const Schedule& schedule,
                       EventIndex e, IntervalIndex t) {
  SES_CHECK(!schedule.IsAssigned(e)) << "score is defined for new events";
  // Eq. 4 is defined for every (event, interval) pair, independent of the
  // feasibility constraints (GRD prices infeasible assignments too and
  // only filters them at selection time), so the hypothetical interval
  // content is evaluated directly rather than through Schedule::Assign.
  auto contribution = [&instance, &schedule, t](bool include_e,
                                                EventIndex extra) {
    auto denom = IntervalDenominators(instance, schedule, t);
    if (include_e) {
      auto users = instance.EventUsers(extra);
      auto values = instance.EventValues(extra);
      for (size_t i = 0; i < users.size(); ++i) {
        denom[users[i]] += values[i];
      }
    }
    double total = 0.0;
    auto add_event = [&](EventIndex p) {
      auto users = instance.EventUsers(p);
      auto values = instance.EventValues(p);
      for (size_t i = 0; i < users.size(); ++i) {
        const double d = denom[users[i]];
        if (d <= 0.0) continue;
        total += instance.sigma().At(users[i], t) *
                 static_cast<double>(values[i]) / d;
      }
    };
    for (EventIndex p : schedule.EventsAt(t)) add_event(p);
    if (include_e) add_event(extra);
    return total;
  };

  return contribution(true, e) - contribution(false, e);
}

}  // namespace ses::core
