#include "core/instance_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

#include "util/csv.h"

namespace ses::core {

namespace {

using util::BufferedWriter;
using util::LineReader;
using util::Result;
using util::Status;
using util::StatusCode;

/// Significant digits that round-trip a float (mu) and a double.
constexpr int kFloatDigits = 9;
constexpr int kDoubleDigits = 17;
/// Exclusive bound of a value that is narrowed to uint32_t.
constexpr uint64_t kUint32Bound = uint64_t{1} << 32;

using InterestRow = std::vector<std::pair<UserIndex, float>>;

/// One instance CSV being read: checks the header line, splits each
/// data row into as many fields as the header has, and parses fields
/// with std::from_chars. Every error names "<path>:<line>".
class CsvInput {
 public:
  static constexpr size_t kMaxFields = 3;

  CsvInput(const std::string& dir, std::string_view file,
           std::string_view header)
      : reader_(dir + "/" + std::string(file)),
        header_(header),
        num_fields_(1 + static_cast<size_t>(
                            std::count(header.begin(), header.end(), ','))) {}

  /// Reads the header line, which must equal the expected one.
  Status ReadHeader() {
    std::string_view line;
    if (!reader_.Next(&line)) {
      if (!reader_.status().ok()) return reader_.status();
      return Error(StatusCode::kParseError, "missing header");
    }
    if (line != header_) {
      return Error(StatusCode::kParseError,
                   "header '" + std::string(line) + "', expected '" +
                       std::string(header_) + "'");
    }
    return Status::Ok();
  }

  /// Reads and splits the next data row. Returns false at end of file,
  /// or with \p status set when the row cannot be read or split.
  bool Next(Status* status) {
    std::string_view line;
    if (!reader_.Next(&line)) {
      *status = reader_.status();
      return false;
    }
    for (size_t i = 0; i + 1 < num_fields_; ++i) {
      const size_t comma = line.find(',');
      if (comma == std::string_view::npos) {
        *status = FieldCountError();
        return false;
      }
      fields_[i] = line.substr(0, comma);
      line.remove_prefix(comma + 1);
    }
    if (line.find(',') != std::string_view::npos) {
      *status = FieldCountError();
      return false;
    }
    fields_[num_fields_ - 1] = line;
    return true;
  }

  std::string_view field(size_t i) const { return fields_[i]; }

  /// Parses all of field \p i with std::from_chars.
  template <typename T>
  Status Parse(size_t i, T* out) const {
    const std::string_view text = fields_[i];
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), *out);
    if (error == std::errc::invalid_argument ||
        end != text.data() + text.size()) {
      return FieldError(StatusCode::kParseError, i, "is not a number");
    }
    if (error == std::errc::result_out_of_range) {
      return FieldError(StatusCode::kOutOfRange, i, "is out of range");
    }
    return Status::Ok();
  }

  /// Parses field \p i as an integer in [0, bound).
  Status Index(size_t i, uint64_t bound, uint32_t* out) const {
    int64_t value = 0;
    SES_RETURN_IF_ERROR(Parse(i, &value));
    if (value < 0 || static_cast<uint64_t>(value) >= bound) {
      return FieldError(StatusCode::kOutOfRange, i,
                        "is outside [0, " + std::to_string(bound) + ")");
    }
    *out = static_cast<uint32_t>(value);
    return Status::Ok();
  }

  /// Parses field 0, the row id, which must equal \p position: rows
  /// come in id order.
  Status ExpectId(size_t position) const {
    uint32_t id = 0;
    SES_RETURN_IF_ERROR(Index(0, kUint32Bound, &id));
    if (id != position) {
      return FieldError(StatusCode::kParseError, 0,
                        "is out of order, expected " +
                            std::to_string(position));
    }
    return Status::Ok();
  }

  /// A \p code status whose message is "<path>:<line>: <message>".
  Status Error(StatusCode code, const std::string& message) const {
    return Status(code, reader_.Where() + ": " + message);
  }

 private:
  Status FieldError(StatusCode code, size_t i,
                    const std::string& message) const {
    std::string_view column = header_;
    for (size_t skip = 0; skip < i; ++skip) {
      column.remove_prefix(column.find(',') + 1);
    }
    column = column.substr(0, column.find(','));
    return Error(code, std::string(column) + " '" + std::string(fields_[i]) +
                           "' " + message);
  }

  Status FieldCountError() const {
    return Error(StatusCode::kParseError,
                 "expected " + std::to_string(num_fields_) + " fields");
  }

  LineReader reader_;
  std::string_view header_;
  size_t num_fields_;
  std::array<std::string_view, kMaxFields> fields_;
};

struct Meta {
  uint32_t users = 0;
  uint32_t intervals = 0;
  double theta = 0.0;
  SigmaSpec sigma;
};

Status ReadMeta(const std::string& dir, Meta* meta) {
  enum Key { kUsers, kIntervals, kTheta, kSigmaKind, kSigmaValue, kSigmaSeed };
  constexpr std::array<std::string_view, 6> kKeys = {
      "users", "intervals", "theta", "sigma_kind", "sigma_value",
      "sigma_seed"};
  std::array<bool, kKeys.size()> seen{};
  CsvInput in(dir, "meta.csv", "key,value");
  SES_RETURN_IF_ERROR(in.ReadHeader());
  Status status;
  while (in.Next(&status)) {
    const auto found = std::find(kKeys.begin(), kKeys.end(), in.field(0));
    if (found == kKeys.end()) continue;  // unknown keys are ignored
    const auto key = static_cast<Key>(found - kKeys.begin());
    seen[key] = true;
    switch (key) {
      case kUsers:
        SES_RETURN_IF_ERROR(in.Index(1, kUint32Bound, &meta->users));
        break;
      case kIntervals:
        SES_RETURN_IF_ERROR(in.Index(1, kUint32Bound, &meta->intervals));
        break;
      case kTheta:
        SES_RETURN_IF_ERROR(in.Parse(1, &meta->theta));
        break;
      case kSigmaKind:
        if (in.field(1) == "const") {
          meta->sigma.kind = SigmaSpec::Kind::kConst;
        } else if (in.field(1) == "hash") {
          meta->sigma.kind = SigmaSpec::Kind::kHash;
        } else {
          return in.Error(StatusCode::kParseError,
                          "unknown sigma_kind '" + std::string(in.field(1)) +
                              "'");
        }
        break;
      case kSigmaValue:
        SES_RETURN_IF_ERROR(in.Parse(1, &meta->sigma.const_value));
        break;
      case kSigmaSeed:
        SES_RETURN_IF_ERROR(in.Parse(1, &meta->sigma.seed));
        break;
    }
    // Checked on whichever of the two keys comes second, so that
    // ConstSigma never sees a value it would abort on.
    const double value = meta->sigma.const_value;
    if (seen[kSigmaKind] && seen[kSigmaValue] &&
        meta->sigma.kind == SigmaSpec::Kind::kConst &&
        !(value >= 0.0 && value <= 1.0)) {
      return in.Error(StatusCode::kParseError,
                      "sigma_value " + std::to_string(value) +
                          " outside [0, 1] for sigma_kind const");
    }
  }
  SES_RETURN_IF_ERROR(status);
  for (size_t key = 0; key < kKeys.size(); ++key) {
    if (!seen[key]) {
      return in.Error(StatusCode::kParseError,
                      "missing key '" + std::string(kKeys[key]) + "'");
    }
  }
  return Status::Ok();
}

/// Reads "<row id>,user_id,mu" triplets, in any order, into \p rows.
Status ReadInterests(const std::string& dir, std::string_view file,
                     std::string_view header, uint32_t num_users,
                     std::vector<InterestRow>* rows) {
  CsvInput in(dir, file, header);
  SES_RETURN_IF_ERROR(in.ReadHeader());
  Status status;
  while (in.Next(&status)) {
    uint32_t row = 0;
    uint32_t user = 0;
    double mu = 0.0;
    SES_RETURN_IF_ERROR(in.Index(0, rows->size(), &row));
    SES_RETURN_IF_ERROR(in.Index(1, num_users, &user));
    SES_RETURN_IF_ERROR(in.Parse(2, &mu));
    (*rows)[row].emplace_back(user, static_cast<float>(mu));
  }
  return status;
}

/// Writes one "<row id>,user_id,mu" line per entry of rows [0, num_rows);
/// \p row_of(r) returns the (users, values) spans of row r.
template <typename RowOf>
Status WriteInterests(const std::string& path, std::string_view header,
                      uint32_t num_rows, RowOf row_of) {
  BufferedWriter out(path);
  out.Append(header).Append('\n');
  for (uint32_t r = 0; r < num_rows; ++r) {
    const auto [users, values] = row_of(r);
    for (size_t i = 0; i < users.size(); ++i) {
      out.AppendUint(r).Append(',').AppendUint(users[i]).Append(',');
      out.AppendDouble(static_cast<double>(values[i]), kFloatDigits)
          .Append('\n');
    }
  }
  return out.Close();
}

}  // namespace

std::shared_ptr<const SigmaProvider> SigmaSpec::Instantiate() const {
  switch (kind) {
    case Kind::kConst:
      return std::make_shared<ConstSigma>(const_value);
    case Kind::kHash:
      return std::make_shared<HashUniformSigma>(seed);
  }
  return nullptr;
}

Status SaveInstance(const SesInstance& instance, const SigmaSpec& sigma_spec,
                    const std::string& dir) {
  {
    BufferedWriter out(dir + "/meta.csv");
    out.Append("key,value\nusers,").AppendUint(instance.num_users());
    out.Append("\nintervals,").AppendUint(instance.num_intervals());
    out.Append("\ntheta,").AppendDouble(instance.theta(), kDoubleDigits);
    out.Append("\nsigma_kind,")
        .Append(sigma_spec.kind == SigmaSpec::Kind::kConst ? "const"
                                                           : "hash");
    out.Append("\nsigma_value,")
        .AppendDouble(sigma_spec.const_value, kDoubleDigits);
    out.Append("\nsigma_seed,").AppendUint(sigma_spec.seed).Append('\n');
    SES_RETURN_IF_ERROR(out.Close());
  }
  {
    BufferedWriter out(dir + "/events.csv");
    out.Append("event_id,location,required_resources\n");
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      out.AppendUint(e).Append(',').AppendUint(instance.event(e).location);
      out.Append(',')
          .AppendDouble(instance.event(e).required_resources, kDoubleDigits)
          .Append('\n');
    }
    SES_RETURN_IF_ERROR(out.Close());
  }
  SES_RETURN_IF_ERROR(WriteInterests(
      dir + "/event_interests.csv", "event_id,user_id,mu",
      instance.num_events(), [&instance](EventIndex e) {
        return std::pair(instance.EventUsers(e), instance.EventValues(e));
      }));
  {
    BufferedWriter out(dir + "/competing.csv");
    out.Append("competing_id,interval\n");
    for (CompetingIndex c = 0; c < instance.num_competing(); ++c) {
      out.AppendUint(c).Append(',').AppendUint(instance.competing(c).interval);
      out.Append('\n');
    }
    SES_RETURN_IF_ERROR(out.Close());
  }
  return WriteInterests(
      dir + "/competing_interests.csv", "competing_id,user_id,mu",
      instance.num_competing(), [&instance](CompetingIndex c) {
        return std::pair(instance.CompetingUsers(c),
                         instance.CompetingValues(c));
      });
}

Result<SesInstance> LoadInstance(const std::string& dir) {
  Meta meta;
  SES_RETURN_IF_ERROR(ReadMeta(dir, &meta));

  struct EventRow {
    LocationId location = 0;
    double resources = 0.0;
  };
  std::vector<EventRow> events;
  {
    CsvInput in(dir, "events.csv", "event_id,location,required_resources");
    SES_RETURN_IF_ERROR(in.ReadHeader());
    Status status;
    while (in.Next(&status)) {
      EventRow event;
      SES_RETURN_IF_ERROR(in.ExpectId(events.size()));
      SES_RETURN_IF_ERROR(in.Index(1, kUint32Bound, &event.location));
      SES_RETURN_IF_ERROR(in.Parse(2, &event.resources));
      events.push_back(event);
    }
    SES_RETURN_IF_ERROR(status);
  }
  std::vector<InterestRow> event_rows(events.size());
  SES_RETURN_IF_ERROR(ReadInterests(dir, "event_interests.csv",
                                    "event_id,user_id,mu", meta.users,
                                    &event_rows));

  std::vector<IntervalIndex> competing;
  {
    CsvInput in(dir, "competing.csv", "competing_id,interval");
    SES_RETURN_IF_ERROR(in.ReadHeader());
    Status status;
    while (in.Next(&status)) {
      IntervalIndex interval = 0;
      SES_RETURN_IF_ERROR(in.ExpectId(competing.size()));
      SES_RETURN_IF_ERROR(in.Index(1, meta.intervals, &interval));
      competing.push_back(interval);
    }
    SES_RETURN_IF_ERROR(status);
  }
  std::vector<InterestRow> competing_rows(competing.size());
  SES_RETURN_IF_ERROR(ReadInterests(dir, "competing_interests.csv",
                                    "competing_id,user_id,mu", meta.users,
                                    &competing_rows));

  InstanceBuilder builder;
  builder.SetNumUsers(meta.users)
      .SetNumIntervals(meta.intervals)
      .SetTheta(meta.theta)
      .SetSigma(meta.sigma.Instantiate());
  for (size_t e = 0; e < events.size(); ++e) {
    builder.AddEvent(events[e].location, events[e].resources,
                     std::move(event_rows[e]));
  }
  for (size_t c = 0; c < competing.size(); ++c) {
    builder.AddCompetingEvent(competing[c], std::move(competing_rows[c]));
  }
  return builder.Build();
}

}  // namespace ses::core
