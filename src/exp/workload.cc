#include "exp/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ses::exp {

namespace {

/// Applies the min-interest threshold and the per-event user cap.
std::vector<std::pair<core::UserIndex, float>> ToInterestRow(
    std::vector<ebsn::UserInterest> interests, double min_interest,
    int64_t cap) {
  if (cap > 0 && interests.size() > static_cast<size_t>(cap)) {
    // Keep the `cap` most interested users.
    std::nth_element(interests.begin(), interests.begin() + cap,
                     interests.end(),
                     [](const ebsn::UserInterest& a,
                        const ebsn::UserInterest& b) {
                       return a.interest > b.interest;
                     });
    interests.resize(static_cast<size_t>(cap));
    std::sort(interests.begin(), interests.end(),
              [](const ebsn::UserInterest& a, const ebsn::UserInterest& b) {
                return a.user < b.user;
              });
  }
  std::vector<std::pair<core::UserIndex, float>> row;
  row.reserve(interests.size());
  for (const ebsn::UserInterest& ui : interests) {
    if (ui.interest < min_interest) continue;
    row.push_back({static_cast<core::UserIndex>(ui.user), ui.interest});
  }
  return row;
}

}  // namespace

WorkloadFactory::WorkloadFactory(const ebsn::EbsnDataset& dataset)
    : dataset_(&dataset), interest_(dataset) {}

core::SigmaSpec WorkloadSigma(uint64_t seed) {
  core::SigmaSpec spec;
  spec.kind = core::SigmaSpec::Kind::kHash;
  spec.seed = seed ^ 0x5161a5ea11ULL;
  return spec;
}

util::Result<core::SesInstance> WorkloadFactory::Build(
    const PaperWorkloadConfig& config) const {
  // |E| >= k must fit a uint32_t, and the 3k/2 and 2k defaults must not
  // overflow.
  if (config.k <= 0 || config.k > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "k must be in [1, %u], got %lld",
        std::numeric_limits<uint32_t>::max(),
        static_cast<long long>(config.k)));
  }
  const int64_t num_intervals = config.ResolvedIntervals();
  const int64_t num_events = config.ResolvedEvents();
  if (num_intervals <= 0 ||
      num_intervals > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "|T| must be in [1, %u], got %lld",
        std::numeric_limits<uint32_t>::max(),
        static_cast<long long>(num_intervals)));
  }
  if (num_events < config.k) {
    return util::Status::InvalidArgument("|E| must be at least k");
  }
  // NaN passes every `< 0` test, and std::llround of a value outside
  // int64_t is unspecified, so both ends of the competing range are
  // checked before they are rounded below.
  if (!std::isfinite(config.competing_mean) ||
      !std::isfinite(config.competing_spread)) {
    return util::Status::InvalidArgument(
        "competing_mean and competing_spread must be finite");
  }
  if (config.competing_mean < 0.0 || config.competing_spread < 0.0) {
    return util::Status::InvalidArgument(
        "competing_mean and competing_spread must be >= 0");
  }
  if (config.competing_mean + config.competing_spread >= 0x1p63) {
    return util::Status::InvalidArgument(
        "competing_mean + competing_spread must be below 2^63");
  }
  // Locations are drawn from [0, num_locations) as 32-bit ids, and xi
  // from [xi_min, xi_max]; the Rng aborts on an empty range.
  if (config.num_locations <= 0 ||
      config.num_locations > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "num_locations must be in [1, %u], got %lld",
        std::numeric_limits<uint32_t>::max(),
        static_cast<long long>(config.num_locations)));
  }
  if (!std::isfinite(config.xi_min) || !std::isfinite(config.xi_max) ||
      config.xi_min < 0.0 || config.xi_max < 0.0) {
    return util::Status::InvalidArgument(
        "xi_min and xi_max must be finite and >= 0");
  }
  if (config.xi_min > config.xi_max) {
    return util::Status::InvalidArgument("xi_min must not exceed xi_max");
  }
  const size_t catalog_size = dataset_->events().size();
  if (catalog_size == 0) {
    return util::Status::FailedPrecondition("dataset has no events");
  }
  if (static_cast<size_t>(num_events) > catalog_size) {
    return util::Status::InvalidArgument(util::StrFormat(
        "|E|=%lld exceeds the catalog (%zu events)",
        static_cast<long long>(num_events), catalog_size));
  }

  util::Rng rng(config.seed);
  core::InstanceBuilder builder;
  builder.SetNumUsers(static_cast<uint32_t>(dataset_->users().size()))
      .SetNumIntervals(static_cast<uint32_t>(num_intervals))
      .SetTheta(config.theta)
      .SetSigma(WorkloadSigma(config.seed).Instantiate());

  // An event's row depends only on its tag set (the organizer group's
  // tags), so each distinct tag set's row is computed and handed to the
  // builder once. Build still interns by content, so two tag sets with
  // the same row share a profile and the numbering is unchanged.
  std::map<std::vector<ebsn::TagId>, uint32_t> tag_set_profile;
  auto profile_of = [&](const std::vector<ebsn::TagId>& tags) {
    auto [it, inserted] = tag_set_profile.try_emplace(tags, 0);
    if (inserted) {
      it->second = builder.AddProfile(ToInterestRow(
          interest_.EventInterests(tags,
                                   static_cast<float>(config.min_interest)),
          config.min_interest, config.max_users_per_event));
    }
    return it->second;
  };

  // Candidate events: a uniform catalog sample without replacement.
  const std::vector<uint32_t> candidate_ids = util::SampleWithoutReplacement(
      rng, static_cast<uint32_t>(catalog_size),
      static_cast<uint32_t>(num_events));
  for (uint32_t id : candidate_ids) {
    const uint32_t profile = profile_of(dataset_->events()[id].tags);
    const core::LocationId location = static_cast<core::LocationId>(
        rng.NextBounded(static_cast<uint64_t>(config.num_locations)));
    const double xi = rng.UniformDouble(config.xi_min, config.xi_max);
    builder.AddEventWithProfile(location, xi, profile);
  }

  // Competing events: per interval, a uniform *integer* count on the
  // closed range [round(mean-spread), round(mean+spread)]. Drawing a
  // real and rounding it would give the two endpoint counts half the
  // probability of every interior count (their rounding intervals are
  // half-width), biasing the per-interval mean away from the paper's
  // configured value.
  const int64_t competing_lo = std::max<int64_t>(
      0, std::llround(config.competing_mean - config.competing_spread));
  const int64_t competing_hi = std::max<int64_t>(
      competing_lo,
      std::llround(config.competing_mean + config.competing_spread));
  for (int64_t t = 0; t < num_intervals; ++t) {
    const int64_t count = rng.UniformInt(competing_lo, competing_hi);
    for (int64_t c = 0; c < count; ++c) {
      const uint32_t id =
          static_cast<uint32_t>(rng.NextBounded(catalog_size));
      builder.AddCompetingEventWithProfile(
          static_cast<core::IntervalIndex>(t),
          profile_of(dataset_->events()[id].tags));
    }
  }

  return builder.Build();
}

}  // namespace ses::exp
