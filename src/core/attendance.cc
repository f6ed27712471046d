#include "core/attendance.h"

#include "core/kernels.h"
#include "util/logging.h"

namespace ses::core {

AttendanceModel::AttendanceModel(Schedule start)
    : instance_(&start.instance()),
      schedule_(std::move(start)),
      // The constructor down-payment for the hot-path contract: every
      // SoA span (D, M, ratio, sigma, touched) is sized to |U| here, so
      // steady-state LoadInterval/TouchLoaded kernels only ever store
      // through pre-sized spans — no growth, no allocation (re-proven
      // at runtime by tests/core_hot_path_alloc_test.cc).
      soa_(instance_->num_users()),
      profile_gains_(instance_->num_profiles()) {}

void AttendanceModel::LoadInterval(IntervalIndex t) {
  if (loaded_ == t) return;
  // Reset only the entries touched by the previously loaded interval.
  kernels::ClearTouched(soa_.touched.data(), soa_.num_touched,
                        soa_.denom.data(), soa_.sched_mass.data(),
                        soa_.ratio.data(), soa_.in_touched.data());
  soa_.num_touched = 0;
  loaded_ = t;

  for (CompetingIndex c : instance_->CompetingAt(t)) {
    auto users = instance_->CompetingUsers(c);
    auto values = instance_->CompetingValues(c);
    // Competing mass is never removed, so M and the ratio stay
    // untouched (null).
    soa_.num_touched = kernels::AccumulateMass(
        users.data(), values.data(), users.size(), soa_.denom.data(),
        nullptr, nullptr, soa_.touched.data(), soa_.in_touched.data(),
        soa_.num_touched);
  }
  // One virtual bulk fill per interval load, amortized over the |U|-entry
  // row it produces — the sanctioned exception to the no-virtual-dispatch
  // rule (SigmaProvider is the extension point; per-entry At() calls are
  // what the rule exists to stop).
  instance_->sigma().FillInterval(t, soa_.sigma);  // ses-lint: allow(hot-path) one virtual bulk fill amortized over |U| entries

  for (EventIndex p : schedule_.EventsAt(t)) {
    auto users = instance_->EventUsers(p);
    auto values = instance_->EventValues(p);
    soa_.num_touched = kernels::AccumulateMass(
        users.data(), values.data(), users.size(), soa_.denom.data(),
        soa_.sched_mass.data(), soa_.ratio.data(), soa_.touched.data(),
        soa_.in_touched.data(), soa_.num_touched);
  }
}

void AttendanceModel::TouchLoaded(EventIndex e, double sign) {
  auto users = instance_->EventUsers(e);
  auto values = instance_->EventValues(e);
  soa_.num_touched = kernels::TouchMass(
      users.data(), values.data(), users.size(), sign, soa_.denom.data(),
      soa_.sched_mass.data(), soa_.ratio.data(), soa_.touched.data(),
      soa_.in_touched.data(), soa_.num_touched);
}

double AttendanceModel::MarginalGain(EventIndex e, IntervalIndex t) {
  SES_CHECK(!schedule_.IsAssigned(e)) << "gain is defined for new events";
  LoadInterval(t);
  ++gain_evaluations_;

  auto users = instance_->EventUsers(e);
  auto values = instance_->EventValues(e);
  return kernels::LuceGain(users.data(), values.data(), users.size(),
                           soa_.denom.data(), soa_.sched_mass.data(),
                           soa_.ratio.data(), soa_.sigma.data());
}

uint64_t AttendanceModel::RescoreRow(IntervalIndex t,
                                     std::span<double> row) {
  // A profile whose stamp is not this call's has not been scored yet.
  ++rescore_calls_;
  uint64_t rescored = 0;
  for (EventIndex e = 0; e < row.size(); ++e) {
    if (!CanAssign(e, t)) {
      row[e] = kNoScore;
      continue;
    }
    ProfileGain& profile = profile_gains_[instance_->EventProfile(e)];
    if (profile.call != rescore_calls_) {
      profile.gain = MarginalGain(e, t);
      profile.call = rescore_calls_;
    }
    row[e] = profile.gain;
    ++rescored;
  }
  return rescored;
}

double AttendanceModel::Apply(EventIndex e, IntervalIndex t) {
  const double gain = MarginalGain(e, t);
  --gain_evaluations_;  // internal bookkeeping, not a solver evaluation
  SES_CHECK(schedule_.Assign(e, t).ok())
      << "Apply requires a valid assignment";
  TouchLoaded(e, +1.0);
  return gain;
}

void AttendanceModel::Unapply(EventIndex e) {
  const IntervalIndex t = schedule_.IntervalOf(e);
  SES_CHECK_NE(t, kInvalidIndex) << "Unapply requires an assigned event";
  LoadInterval(t);
  SES_CHECK(schedule_.Unassign(e).ok());
  TouchLoaded(e, -1.0);
}

}  // namespace ses::core
