#include "ebsn/dataset.h"

#include <algorithm>
#include <utility>

#include "util/csv.h"
#include "util/string_util.h"

namespace ses::ebsn {

namespace {

using util::CsvRow;
using util::Result;
using util::Status;

bool IsSortedUnique(const std::vector<uint32_t>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

std::string JoinIds(const std::vector<uint32_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += std::to_string(ids[i]);
  }
  return out;
}

Result<uint32_t> ParseId(std::string_view token) {
  auto value = util::ParseInt64(token);
  if (!value.ok()) return value.status();
  if (value.value() < 0 || value.value() > 0xfffffffeLL) {
    return Status::ParseError("id out of range: " + std::string(token));
  }
  return static_cast<uint32_t>(value.value());
}

Result<std::vector<uint32_t>> ParseIds(const std::string& packed) {
  std::vector<uint32_t> out;
  if (util::Trim(packed).empty()) return out;
  for (const std::string& token : util::Split(packed, ' ')) {
    if (token.empty()) continue;
    SES_ASSIGN_OR_RETURN(const uint32_t id, ParseId(token));
    out.push_back(id);
  }
  return out;
}

/// Calls \p fn on every data row of the dataset CSV at \p path (the
/// header line is skipped), parsed with ParseCsvLine since names may be
/// quoted. A row of the wrong width, or an error from \p fn, fails with
/// the message prefixed by "<path>:<line>: ".
template <typename Fn>
Status ForEachRow(const std::string& path, size_t num_fields, Fn fn) {
  util::LineReader in(path);
  std::string_view line;
  bool header = true;
  while (in.Next(&line)) {
    if (std::exchange(header, false)) continue;
    Status status;
    auto row = util::ParseCsvLine(line);
    if (!row.ok()) {
      status = row.status();
    } else if (row->size() != num_fields) {
      status = Status::ParseError(util::StrFormat(
          "%zu fields, expected %zu", row->size(), num_fields));
    } else {
      status = fn(*row);
    }
    if (!status.ok()) {
      return Status(status.code(), in.Where() + ": " + status.message());
    }
  }
  return in.status();
}

}  // namespace

Status EbsnDataset::Validate() const {
  const uint32_t num_tags = static_cast<uint32_t>(tags_.size());
  const uint32_t num_users = static_cast<uint32_t>(users_.size());
  const uint32_t num_groups = static_cast<uint32_t>(groups_.size());

  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    if (!IsSortedUnique(group.tags)) {
      return Status::FailedPrecondition(
          util::StrFormat("group %zu: tags not sorted/unique", g));
    }
    for (TagId tag : group.tags) {
      if (tag >= num_tags) {
        return Status::OutOfRange(
            util::StrFormat("group %zu: tag %u out of range", g, tag));
      }
    }
    if (!IsSortedUnique(group.members)) {
      return Status::FailedPrecondition(
          util::StrFormat("group %zu: members not sorted/unique", g));
    }
    for (EbsnUserId member : group.members) {
      if (member >= num_users) {
        return Status::OutOfRange(
            util::StrFormat("group %zu: member %u out of range", g, member));
      }
    }
  }

  for (size_t u = 0; u < users_.size(); ++u) {
    const UserProfile& user = users_[u];
    if (!IsSortedUnique(user.tags)) {
      return Status::FailedPrecondition(
          util::StrFormat("user %zu: tags not sorted/unique", u));
    }
    for (TagId tag : user.tags) {
      if (tag >= num_tags) {
        return Status::OutOfRange(
            util::StrFormat("user %zu: tag %u out of range", u, tag));
      }
    }
    if (!IsSortedUnique(user.groups)) {
      return Status::FailedPrecondition(
          util::StrFormat("user %zu: groups not sorted/unique", u));
    }
    for (GroupId g : user.groups) {
      if (g >= num_groups) {
        return Status::OutOfRange(
            util::StrFormat("user %zu: group %u out of range", u, g));
      }
      const auto& members = groups_[g].members;
      if (!std::binary_search(members.begin(), members.end(),
                              static_cast<EbsnUserId>(u))) {
        return Status::FailedPrecondition(util::StrFormat(
            "user %zu joined group %u but is not in its member list", u, g));
      }
    }
  }

  for (size_t e = 0; e < events_.size(); ++e) {
    const EventRecord& event = events_[e];
    if (event.organizer >= num_groups) {
      return Status::OutOfRange(
          util::StrFormat("event %zu: organizer %u out of range", e,
                          event.organizer));
    }
    if (!IsSortedUnique(event.tags)) {
      return Status::FailedPrecondition(
          util::StrFormat("event %zu: tags not sorted/unique", e));
    }
    for (TagId tag : event.tags) {
      if (tag >= num_tags) {
        return Status::OutOfRange(
            util::StrFormat("event %zu: tag %u out of range", e, tag));
      }
    }
  }

  for (size_t c = 0; c < checkins_.size(); ++c) {
    if (checkins_[c].user >= num_users) {
      return Status::OutOfRange(
          util::StrFormat("checkin %zu: user out of range", c));
    }
    if (num_slots_ > 0 && checkins_[c].slot >= num_slots_) {
      return Status::OutOfRange(
          util::StrFormat("checkin %zu: slot out of range", c));
    }
  }
  return Status::Ok();
}

Status EbsnDataset::Save(const std::string& dir) const {
  {
    std::vector<CsvRow> rows;
    rows.reserve(tags_.size());
    for (size_t i = 0; i < tags_.size(); ++i) {
      rows.push_back({std::to_string(i), tags_.name(static_cast<TagId>(i))});
    }
    SES_RETURN_IF_ERROR(
        util::WriteCsvFile(dir + "/tags.csv", {"tag_id", "name"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(groups_.size());
    for (size_t g = 0; g < groups_.size(); ++g) {
      rows.push_back({std::to_string(g), groups_[g].name,
                      JoinIds(groups_[g].tags), JoinIds(groups_[g].members)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(
        dir + "/groups.csv", {"group_id", "name", "tags", "members"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(users_.size());
    for (size_t u = 0; u < users_.size(); ++u) {
      rows.push_back({std::to_string(u), JoinIds(users_[u].groups),
                      JoinIds(users_[u].tags)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(
        dir + "/users.csv", {"user_id", "groups", "tags"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(events_.size());
    for (size_t e = 0; e < events_.size(); ++e) {
      rows.push_back({std::to_string(e), std::to_string(events_[e].organizer),
                      JoinIds(events_[e].tags)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(
        dir + "/events.csv", {"event_id", "organizer", "tags"}, rows));
  }
  {
    std::vector<CsvRow> rows;
    rows.reserve(checkins_.size() + 1);
    rows.push_back({"slots", std::to_string(num_slots_)});
    for (const CheckIn& checkin : checkins_) {
      rows.push_back(
          {std::to_string(checkin.user), std::to_string(checkin.slot)});
    }
    SES_RETURN_IF_ERROR(util::WriteCsvFile(dir + "/checkins.csv",
                                           {"user_or_meta", "slot"}, rows));
  }
  return Status::Ok();
}

Result<EbsnDataset> EbsnDataset::Load(const std::string& dir) {
  EbsnDataset ds;
  SES_RETURN_IF_ERROR(ForEachRow(dir + "/tags.csv", 2, [&](CsvRow& row) {
    ds.tags_.Intern(row[1]);
    return Status::Ok();
  }));
  SES_RETURN_IF_ERROR(ForEachRow(dir + "/groups.csv", 4, [&](CsvRow& row) {
    Group group;
    group.name = std::move(row[1]);
    SES_ASSIGN_OR_RETURN(group.tags, ParseIds(row[2]));
    SES_ASSIGN_OR_RETURN(group.members, ParseIds(row[3]));
    ds.groups_.push_back(std::move(group));
    return Status::Ok();
  }));
  SES_RETURN_IF_ERROR(ForEachRow(dir + "/users.csv", 3, [&](CsvRow& row) {
    UserProfile user;
    SES_ASSIGN_OR_RETURN(user.groups, ParseIds(row[1]));
    SES_ASSIGN_OR_RETURN(user.tags, ParseIds(row[2]));
    ds.users_.push_back(std::move(user));
    return Status::Ok();
  }));
  SES_RETURN_IF_ERROR(ForEachRow(dir + "/events.csv", 3, [&](CsvRow& row) {
    EventRecord event;
    SES_ASSIGN_OR_RETURN(event.organizer, ParseId(row[1]));
    SES_ASSIGN_OR_RETURN(event.tags, ParseIds(row[2]));
    ds.events_.push_back(std::move(event));
    return Status::Ok();
  }));
  SES_RETURN_IF_ERROR(ForEachRow(dir + "/checkins.csv", 2, [&](CsvRow& row) {
    if (row[0] == "slots") {
      SES_ASSIGN_OR_RETURN(ds.num_slots_, ParseId(row[1]));
      return Status::Ok();
    }
    CheckIn checkin;
    SES_ASSIGN_OR_RETURN(checkin.user, ParseId(row[0]));
    SES_ASSIGN_OR_RETURN(checkin.slot, ParseId(row[1]));
    ds.checkins_.push_back(checkin);
    return Status::Ok();
  }));
  SES_RETURN_IF_ERROR(ds.Validate());
  return ds;
}

}  // namespace ses::ebsn
