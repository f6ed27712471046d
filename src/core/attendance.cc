#include "core/attendance.h"

#include <algorithm>

#include "core/kernels.h"
#include "util/logging.h"

namespace ses::core {

AttendanceModel::AttendanceModel(Schedule start)
    : instance_(&start.instance()),
      schedule_(std::move(start)),
      // Every SoA span (D, M, ratio, sigma) is sized to |U| here, so
      // steady-state LoadInterval/TouchLoaded kernels only ever store
      // through pre-sized spans — no growth, no allocation (re-proven
      // at runtime by tests/core_hot_path_alloc_test.cc).
      soa_(instance_->num_users()),
      profile_gains_(instance_->num_profiles()),
      pending_profiles_(instance_->num_profiles()) {}

void AttendanceModel::LoadInterval(IntervalIndex t) {
  if (loaded_ == t) return;
  loaded_ = t;
  // A dense reset: one interval's competing rows alone cover most
  // users, so clearing all |U| costs about what tracking them would.
  std::fill(soa_.denom.begin(), soa_.denom.end(), 0.0);
  std::fill(soa_.sched_mass.begin(), soa_.sched_mass.end(), 0.0);
  std::fill(soa_.ratio.begin(), soa_.ratio.end(), 0.0);

  for (CompetingIndex c : instance_->CompetingAt(t)) {
    auto users = instance_->CompetingUsers(c);
    auto values = instance_->CompetingValues(c);
    kernels::AddMass(users.data(), values.data(), users.size(), 1,
                     soa_.denom.data());
  }
  // One virtual bulk fill per interval load, amortized over the |U|-entry
  // row it produces — the sanctioned exception to the no-virtual-dispatch
  // rule (SigmaProvider is the extension point; per-entry At() calls are
  // what the rule exists to stop).
  instance_->sigma().FillInterval(t, soa_.sigma);  // ses-lint: allow(hot-path) one virtual bulk fill amortized over |U| entries

  for (EventIndex p : schedule_.EventsAt(t)) TouchLoaded(p, +1.0);
}

void AttendanceModel::TouchLoaded(EventIndex e, double sign) {
  auto users = instance_->EventUsers(e);
  auto values = instance_->EventValues(e);
  kernels::TouchMass(users.data(), values.data(), users.size(), sign,
                     soa_.denom.data(), soa_.sched_mass.data(),
                     soa_.ratio.data());
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

uint64_t AttendanceModel::RescoreRow(IntervalIndex t, std::span<double> row,
                                     std::span<const EventIndex> events) {
  LoadInterval(t);
  // Collect each profile once: one whose stamp is not this call's has
  // not been seen yet. A valid cell holds 0 until its gain is known.
  ++rescore_calls_;
  uint64_t rescored = 0;
  size_t pending = 0;
  for (EventIndex e : events) {
    if (!CanAssign(e, t)) {
      row[e] = kNoScore;
      continue;
    }
    ProfileGain& profile = profile_gains_[instance_->EventProfile(e)];
    if (profile.call != rescore_calls_) {
      profile.call = rescore_calls_;
      pending_profiles_[pending++] = instance_->EventProfile(e);
    }
    row[e] = 0.0;
    ++rescored;
  }
  gain_evaluations_ += pending;

  // Score them kernels::kGainRows at a time. A last, partial group is
  // padded with empty rows, so its profiles sum alone in the tails.
  constexpr size_t kGroup = kernels::kGainRows;
  for (size_t next = 0; next < pending; next += kGroup) {
    const size_t count = std::min(kGroup, pending - next);
    const UserIndex* users[kGroup] = {};
    const float* values[kGroup] = {};
    size_t sizes[kGroup] = {};
    double gains[kGroup];
    for (size_t r = 0; r < count; ++r) {
      const uint32_t p = pending_profiles_[next + r];
      users[r] = instance_->ProfileUsers(p).data();
      values[r] = instance_->ProfileValues(p).data();
      sizes[r] = instance_->ProfileUsers(p).size();
    }
    kernels::LuceGainRows(users, values, sizes, soa_.denom.data(),
                          soa_.sched_mass.data(), soa_.ratio.data(),
                          soa_.sigma.data(), gains);
    for (size_t r = 0; r < count; ++r) {
      profile_gains_[pending_profiles_[next + r]].gain = gains[r];
    }
  }

  for (EventIndex e : events) {
    if (row[e] != kNoScore) {
      row[e] = profile_gains_[instance_->EventProfile(e)].gain;
    }
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
