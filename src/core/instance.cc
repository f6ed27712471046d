#include "core/instance.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::core {

namespace {

/// NaN fails the comparison, so it is rejected along with negatives.
bool IsFiniteNonNegative(double x) { return x >= 0.0 && std::isfinite(x); }

}  // namespace

void InterestRows::Reserve(size_t rows, size_t entries) {
  offsets_.reserve(offsets_.size() + rows);
  users_.reserve(users_.size() + entries);
  values_.reserve(values_.size() + entries);
}

uint32_t InterestRows::AddRow(
    std::span<const std::pair<UserIndex, float>> entries) {
  for (const auto& [user, value] : entries) {
    users_.push_back(user);
    values_.push_back(value);
  }
  offsets_.push_back(users_.size());
  return static_cast<uint32_t>(offsets_.size() - 2);
}

std::span<const UserIndex> InterestRows::RowUsers(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {users_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

std::span<const float> InterestRows::RowValues(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {values_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

float InterestRows::ValueAt(uint32_t row, UserIndex user) const {
  auto users = RowUsers(row);
  auto it = std::lower_bound(users.begin(), users.end(), user);
  if (it == users.end() || *it != user) return 0.0f;
  return RowValues(row)[static_cast<size_t>(it - users.begin())];
}

const CandidateEventInfo& SesInstance::event(EventIndex e) const {
  SES_CHECK_LT(e, events_.size());
  return events_[e];
}

const CompetingEventInfo& SesInstance::competing(CompetingIndex c) const {
  SES_CHECK_LT(c, competing_.size());
  return competing_[c];
}

std::span<const CompetingIndex> SesInstance::CompetingAt(
    IntervalIndex t) const {
  SES_CHECK_LT(t, interval_competing_.size());
  return interval_competing_[t];
}

InstanceBuilder& InstanceBuilder::SetNumUsers(uint32_t n) {
  num_users_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetNumIntervals(uint32_t n) {
  num_intervals_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetTheta(double theta) {
  theta_ = theta;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetSigma(
    std::shared_ptr<const SigmaProvider> sigma) {
  sigma_ = std::move(sigma);
  return *this;
}

EventIndex InstanceBuilder::AddEvent(
    LocationId location, double required_resources,
    std::vector<std::pair<UserIndex, float>> interests) {
  events_.push_back({location, required_resources});
  event_rows_.push_back({std::move(interests)});
  return static_cast<EventIndex>(events_.size() - 1);
}

CompetingIndex InstanceBuilder::AddCompetingEvent(
    IntervalIndex interval,
    std::vector<std::pair<UserIndex, float>> interests) {
  competing_.push_back({interval});
  competing_rows_.push_back({std::move(interests)});
  return static_cast<CompetingIndex>(competing_.size() - 1);
}

util::Status InstanceBuilder::ValidateRow(
    const std::vector<std::pair<UserIndex, float>>& row, const char* what,
    size_t index) const {
  for (size_t i = 0; i < row.size(); ++i) {
    const auto& [user, value] = row[i];
    if (user >= num_users_) {
      return util::Status::OutOfRange(util::StrFormat(
          "%s %zu: user %u out of range (|U|=%u)", what, index, user,
          num_users_));
    }
    if (!(value > 0.0f) || value > 1.0f) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s %zu: interest %f outside (0,1]", what, index,
          static_cast<double>(value)));
    }
    if (i > 0 && row[i - 1].first >= user) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "%s %zu: interest row not sorted/unique by user", what, index));
    }
  }
  return util::Status::Ok();
}

void InstanceBuilder::MoveRows(std::vector<PendingRow>* pending,
                              InterestRows* rows) {
  size_t entries = 0;
  for (const PendingRow& row : *pending) entries += row.entries.size();
  rows->Reserve(pending->size(), entries);
  // Each pending row is freed once copied, so the CSR grows into the
  // memory the rows give back.
  for (PendingRow& row : *pending) {
    const auto copied = std::move(row.entries);
    rows->AddRow(copied);
  }
}

util::Result<SesInstance> InstanceBuilder::Build() {
  if (num_users_ == 0) {
    return util::Status::InvalidArgument("instance needs at least one user");
  }
  if (num_intervals_ == 0) {
    return util::Status::InvalidArgument(
        "instance needs at least one interval");
  }
  if (!IsFiniteNonNegative(theta_)) {
    return util::Status::InvalidArgument(
        util::StrFormat("theta %g must be finite and non-negative", theta_));
  }
  if (sigma_ == nullptr) {
    return util::Status::InvalidArgument("sigma provider not set");
  }
  for (size_t e = 0; e < events_.size(); ++e) {
    if (!IsFiniteNonNegative(events_[e].required_resources)) {
      return util::Status::InvalidArgument(util::StrFormat(
          "event %zu: required resources %g must be finite and non-negative",
          e, events_[e].required_resources));
    }
    SES_RETURN_IF_ERROR(ValidateRow(event_rows_[e].entries, "event", e));
  }
  for (size_t c = 0; c < competing_.size(); ++c) {
    if (competing_[c].interval >= num_intervals_) {
      return util::Status::OutOfRange(util::StrFormat(
          "competing event %zu: interval %u out of range", c,
          competing_[c].interval));
    }
    SES_RETURN_IF_ERROR(
        ValidateRow(competing_rows_[c].entries, "competing event", c));
  }

  SesInstance instance;
  instance.num_users_ = num_users_;
  instance.num_intervals_ = num_intervals_;
  instance.theta_ = theta_;
  instance.sigma_ = std::move(sigma_);
  instance.events_ = std::move(events_);
  instance.competing_ = std::move(competing_);
  instance.interval_competing_.resize(num_intervals_);
  for (size_t c = 0; c < instance.competing_.size(); ++c) {
    instance.interval_competing_[instance.competing_[c].interval].push_back(
        static_cast<CompetingIndex>(c));
  }
  MoveRows(&event_rows_, &instance.event_interest_);
  MoveRows(&competing_rows_, &instance.competing_interest_);
  return instance;
}

}  // namespace ses::core
