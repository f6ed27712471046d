#include "ebsn/interest.h"

#include <cstdint>

#include "util/logging.h"

namespace ses::ebsn {

namespace {

/// Per-thread intersection counts for EventInterests, one per user.
/// Keyed by thread rather than by model so a shared const InterestModel
/// is safe to query from many threads at once. The counts are zero
/// everywhere outside a call (the dense pass below resets each count it
/// reads), so models over different datasets share one buffer; it only
/// ever grows to the largest user universe the thread has seen.
std::vector<uint16_t>& LocalCounts(size_t num_users) {
  thread_local std::vector<uint16_t> counts;
  if (counts.size() < num_users) counts.resize(num_users, 0);
  return counts;
}

}  // namespace

InterestModel::InterestModel(const EbsnDataset& dataset)
    : dataset_(&dataset) {
  tag_users_.resize(dataset.tags().size());
  for (EbsnUserId u = 0; u < dataset.users().size(); ++u) {
    for (TagId tag : dataset.users()[u].tags) {
      tag_users_[tag].push_back(u);
    }
  }
  // Users are visited in increasing id order, so the lists are sorted.
}

std::vector<UserInterest> InterestModel::EventInterests(
    const std::vector<TagId>& event_tags, float min_interest) const {
  const auto& users = dataset_->users();
  std::vector<uint16_t>& counts = LocalCounts(users.size());
  size_t overlapping = 0;
  for (TagId tag : event_tags) {
    SES_CHECK_LT(tag, tag_users_.size());
    for (EbsnUserId u : tag_users_[tag]) {
      overlapping += counts[u] == 0;
      ++counts[u];
    }
  }
  std::vector<UserInterest> out;
  out.reserve(overlapping);
  const float event_size = static_cast<float>(event_tags.size());
  // One pass in user order, so the list comes out sorted by user.
  for (EbsnUserId u = 0; u < users.size(); ++u) {
    if (counts[u] == 0) continue;
    const float overlap = static_cast<float>(counts[u]);
    counts[u] = 0;
    const float union_size =
        static_cast<float>(users[u].tags.size()) + event_size - overlap;
    const float jaccard = union_size > 0 ? overlap / union_size : 0.0f;
    if (jaccard >= min_interest && jaccard > 0.0f) {
      out.push_back({u, jaccard});
    }
  }
  return out;
}

}  // namespace ses::ebsn
