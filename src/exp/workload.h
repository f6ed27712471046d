#ifndef SES_EXP_WORKLOAD_H_
#define SES_EXP_WORKLOAD_H_

/// \file
/// The paper's experimental workload (Section IV-A), reproduced:
///
///  - data: Meetup-like EBSN dataset (42,444 users / ~16k events for the
///    California scale), interest mu = Jaccard of user/event tags;
///  - k: default 100, maximum 500;
///  - |T|: swept from k/5 to 3k, default 3k/2;
///  - |E| = 2k candidate events, sampled from the catalog;
///  - competing events per interval: uniform with mean 8.1, drawn from
///    the catalog and fixed to their interval;
///  - 25 event locations, assigned uniformly;
///  - theta = 20 available resources; xi ~ Uniform[1, 20/3];
///  - sigma: Uniform[0,1) via a seeded hash (storage-free).

#include <cstdint>

#include "core/instance.h"
#include "core/instance_io.h"
#include "ebsn/dataset.h"
#include "ebsn/interest.h"
#include "util/status.h"

namespace ses::exp {

/// Parameters of one experiment point. Negative values mean "derive the
/// paper default from k".
struct PaperWorkloadConfig {
  int64_t k = 100;
  int64_t num_intervals = -1;        ///< default 3k/2
  int64_t num_candidate_events = -1; ///< default 2k

  /// Competing events per interval ~ round(Uniform(mean - spread,
  /// mean + spread)); the paper's mean is 8.1.
  double competing_mean = 8.1;
  double competing_spread = 3.9;

  int64_t num_locations = 25;
  double theta = 20.0;
  double xi_min = 1.0;
  double xi_max = 20.0 / 3.0;

  /// Interests below this Jaccard threshold are treated as zero.
  double min_interest = 0.05;
  /// Per-event cap on the interest list (keeps the densest instances
  /// memory-bounded; entries beyond the cap are the least-interested
  /// users). 0 disables the cap.
  int64_t max_users_per_event = 4000;

  uint64_t seed = 7;

  /// |T| after applying the 3k/2 default.
  int64_t ResolvedIntervals() const {
    return num_intervals > 0 ? num_intervals : (3 * k) / 2;
  }
  /// |E| after applying the 2k default.
  int64_t ResolvedEvents() const {
    return num_candidate_events > 0 ? num_candidate_events : 2 * k;
  }
};

/// The sigma of the instances WorkloadFactory::Build makes with workload
/// seed \p seed, as the spec SaveInstance takes: the Uniform hash sigma
/// seeded with seed ^ 0x5161a5ea11.
core::SigmaSpec WorkloadSigma(uint64_t seed);

/// Builds SES instances over a fixed EBSN dataset. Construction
/// pre-builds the Jaccard inverted index once; Build() is then cheap
/// enough to call per sweep point. Thread-safe: Build() only reads the
/// shared index (InterestModel keeps its scatter scratch per thread), so
/// concurrent sweep workers construct instances without serialization.
class WorkloadFactory {
 public:
  /// \p dataset must outlive the factory.
  explicit WorkloadFactory(const ebsn::EbsnDataset& dataset);

  /// Materializes the SES instance for \p config. Events of one
  /// organizer group share its tags, so Build computes one interest row
  /// per distinct tag set it draws and hands it to the builder once;
  /// the memo lives only in the call, since rows depend on
  /// min_interest and max_users_per_event.
  [[nodiscard]] util::Result<core::SesInstance> Build(
      const PaperWorkloadConfig& config) const;

  const ebsn::EbsnDataset& dataset() const { return *dataset_; }

 private:
  const ebsn::EbsnDataset* dataset_;
  ebsn::InterestModel interest_;
};

}  // namespace ses::exp

#endif  // SES_EXP_WORKLOAD_H_
