#ifndef SES_EBSN_DATASET_STATS_H_
#define SES_EBSN_DATASET_STATS_H_

/// \file
/// Descriptive statistics of an EBSN dataset. The paper calibrates its
/// workload from such statistics (e.g. "on average 8.1 events are taking
/// place during overlapping intervals"); this module makes the analogous
/// measurements on our datasets reproducible.

#include <string>

#include "ebsn/dataset.h"
#include "util/stats.h"

namespace ses::ebsn {

/// Aggregate statistics of one dataset.
struct DatasetStats {
  size_t num_users = 0;
  size_t num_groups = 0;
  size_t num_events = 0;
  size_t num_tags = 0;
  size_t num_checkins = 0;

  /// Distribution of group sizes (members per group).
  util::Summary group_size;
  /// Distribution of groups joined per user.
  util::Summary groups_per_user;
  /// Distribution of tags per user.
  util::Summary tags_per_user;
  /// Distribution of tags per event.
  util::Summary tags_per_event;
  /// Distribution of check-ins per user.
  util::Summary checkins_per_user;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Computes DatasetStats for \p dataset.
DatasetStats ComputeDatasetStats(const EbsnDataset& dataset);

}  // namespace ses::ebsn

#endif  // SES_EBSN_DATASET_STATS_H_
