#include "ebsn/dataset_stats.h"

#include <vector>

#include "util/string_util.h"

namespace ses::ebsn {

DatasetStats ComputeDatasetStats(const EbsnDataset& dataset) {
  DatasetStats stats;
  stats.num_users = dataset.users().size();
  stats.num_groups = dataset.groups().size();
  stats.num_events = dataset.events().size();
  stats.num_tags = dataset.tags().size();
  stats.num_checkins = dataset.checkins().size();

  std::vector<double> group_sizes;
  group_sizes.reserve(dataset.groups().size());
  for (const Group& group : dataset.groups()) {
    group_sizes.push_back(static_cast<double>(group.members.size()));
  }
  stats.group_size = util::Summarize(group_sizes);

  std::vector<double> groups_per_user;
  std::vector<double> tags_per_user;
  groups_per_user.reserve(dataset.users().size());
  tags_per_user.reserve(dataset.users().size());
  for (const UserProfile& user : dataset.users()) {
    groups_per_user.push_back(static_cast<double>(user.groups.size()));
    tags_per_user.push_back(static_cast<double>(user.tags.size()));
  }
  stats.groups_per_user = util::Summarize(groups_per_user);
  stats.tags_per_user = util::Summarize(tags_per_user);

  std::vector<double> tags_per_event;
  tags_per_event.reserve(dataset.events().size());
  for (const EventRecord& event : dataset.events()) {
    tags_per_event.push_back(static_cast<double>(event.tags.size()));
  }
  stats.tags_per_event = util::Summarize(tags_per_event);

  std::vector<double> checkins_per_user(dataset.users().size(), 0.0);
  for (const CheckIn& checkin : dataset.checkins()) {
    if (checkin.user < checkins_per_user.size()) {
      checkins_per_user[checkin.user] += 1.0;
    }
  }
  stats.checkins_per_user = util::Summarize(checkins_per_user);
  return stats;
}

std::string DatasetStats::ToString() const {
  std::string out;
  out += util::StrFormat(
      "users=%s groups=%s events=%s tags=%s checkins=%s\n",
      util::WithThousandsSep(static_cast<int64_t>(num_users)).c_str(),
      util::WithThousandsSep(static_cast<int64_t>(num_groups)).c_str(),
      util::WithThousandsSep(static_cast<int64_t>(num_events)).c_str(),
      util::WithThousandsSep(static_cast<int64_t>(num_tags)).c_str(),
      util::WithThousandsSep(static_cast<int64_t>(num_checkins)).c_str());
  out += "  group size:        " + group_size.ToString() + "\n";
  out += "  groups per user:   " + groups_per_user.ToString() + "\n";
  out += "  tags per user:     " + tags_per_user.ToString() + "\n";
  out += "  tags per event:    " + tags_per_event.ToString() + "\n";
  out += "  checkins per user: " + checkins_per_user.ToString() + "\n";
  return out;
}

}  // namespace ses::ebsn
