#include "ebsn/interest.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace ses::ebsn {

namespace {

/// Per-thread scatter scratch for EventInterests: intersection counts per
/// user plus the list of users with a non-zero count. Keyed by thread rather than by
/// model so a shared const InterestModel is safe to query from many
/// threads at once. The counts invariant — zero everywhere outside a
/// call (reset-as-we-go below) — lets models over different datasets
/// share one buffer; it only ever grows to the largest user universe the
/// thread has seen.
struct ScatterScratch {
  std::vector<uint16_t> overlap_counts;
  std::vector<EbsnUserId> overlapping;
};

ScatterScratch& LocalScratch(size_t num_users) {
  thread_local ScatterScratch scratch;
  if (scratch.overlap_counts.size() < num_users) {
    scratch.overlap_counts.resize(num_users, 0);
  }
  return scratch;
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
  ScatterScratch& scratch = LocalScratch(dataset_->users().size());
  scratch.overlapping.clear();
  for (TagId tag : event_tags) {
    SES_CHECK_LT(tag, tag_users_.size());
    for (EbsnUserId u : tag_users_[tag]) {
      if (scratch.overlap_counts[u] == 0) scratch.overlapping.push_back(u);
      ++scratch.overlap_counts[u];
    }
  }
  std::vector<UserInterest> out;
  out.reserve(scratch.overlapping.size());
  const auto& users = dataset_->users();
  const float event_size = static_cast<float>(event_tags.size());
  for (EbsnUserId u : scratch.overlapping) {
    const float overlap = static_cast<float>(scratch.overlap_counts[u]);
    scratch.overlap_counts[u] = 0;  // reset scratch as we go
    const float union_size =
        static_cast<float>(users[u].tags.size()) + event_size - overlap;
    const float jaccard = union_size > 0 ? overlap / union_size : 0.0f;
    if (jaccard >= min_interest && jaccard > 0.0f) {
      out.push_back({u, jaccard});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const UserInterest& a, const UserInterest& b) {
              return a.user < b.user;
            });
  return out;
}

float InterestModel::UserEventJaccard(
    EbsnUserId user, const std::vector<TagId>& event_tags) const {
  SES_CHECK_LT(user, dataset_->users().size());
  const auto& user_tags = dataset_->users()[user].tags;
  size_t overlap = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < user_tags.size() && j < event_tags.size()) {
    if (user_tags[i] == event_tags[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (user_tags[i] < event_tags[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t union_size = user_tags.size() + event_tags.size() - overlap;
  if (union_size == 0) return 0.0f;
  return static_cast<float>(overlap) / static_cast<float>(union_size);
}

const std::vector<EbsnUserId>& InterestModel::UsersWithTag(TagId tag) const {
  SES_CHECK_LT(tag, tag_users_.size());
  return tag_users_[tag];
}

}  // namespace ses::ebsn
