#include "core/instance_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

#include "util/csv.h"
#include "util/string_util.h"

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

/// One instance CSV being read: checks the header line, splits each
/// data row into as many fields as the header has, and parses fields
/// with std::from_chars. Every error names "<path>:<line>".
class CsvInput {
 public:
  static constexpr size_t kMaxFields = 4;

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

  /// An Error about field \p i: "<column> '<text>' <message>".
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

 private:
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

/// Parses field \p i of \p in as a profile id under the first-use rule:
/// an id already named, or \p num_profiles, which names one more.
Status ReadProfileId(const CsvInput& in, size_t i, uint32_t* num_profiles,
                     uint32_t* profile) {
  SES_RETURN_IF_ERROR(in.Index(i, uint64_t{*num_profiles} + 1, profile));
  if (*profile == *num_profiles) ++*num_profiles;
  return Status::Ok();
}

/// Reads profiles.csv's rows, checking each entry as it parses it, and
/// hands each of the \p num_profiles rows to \p builder once, in id
/// order; a profile without rows is an empty row. \p in has read its
/// header.
Status ReadProfiles(CsvInput& in, uint32_t num_users, uint32_t num_profiles,
                    InstanceBuilder* builder) {
  InstanceBuilder::Row row;  // the current profile's; keeps its capacity
  uint32_t current = 0;
  auto finish_until = [&](uint32_t profile) {
    for (; current < profile; ++current) {
      builder->AddProfile(row);  // an exact-size copy
      row.clear();
    }
  };
  Status status;
  while (in.Next(&status)) {
    uint32_t profile = 0;
    uint32_t user = 0;
    double mu = 0.0;
    SES_RETURN_IF_ERROR(in.Index(0, num_profiles, &profile));
    if (profile < current) {
      return in.FieldError(StatusCode::kParseError, 0,
                           "is out of order, after profile " +
                               std::to_string(current));
    }
    finish_until(profile);
    SES_RETURN_IF_ERROR(in.Index(1, num_users, &user));
    if (!row.empty() && user <= row.back().first) {
      return in.FieldError(StatusCode::kParseError, 1,
                           "is not above the previous user " +
                               std::to_string(row.back().first) +
                               " of profile " + std::to_string(profile));
    }
    SES_RETURN_IF_ERROR(in.Parse(2, &mu));
    // Range-checked before narrowing: a double beyond float's range does
    // not convert.
    if (!(mu > 0.0) || mu > 1.0 || static_cast<float>(mu) == 0.0f) {
      return in.FieldError(StatusCode::kParseError, 2,
                           "is outside (0, 1] as a float");
    }
    row.emplace_back(user, static_cast<float>(mu));
  }
  SES_RETURN_IF_ERROR(status);
  finish_until(num_profiles);
  return Status::Ok();
}

/// Checks that \p spec describes the instance's provider, which cannot
/// be introspected: the two must agree at every interval for the first,
/// middle and last user. Checking every user would cost about a third
/// of a paper-scale save.
Status CheckSigmaSpec(const SesInstance& instance, const SigmaSpec& spec) {
  if (spec.kind == SigmaSpec::Kind::kConst &&
      !(spec.const_value >= 0.0 && spec.const_value <= 1.0)) {
    return Status::InvalidArgument(util::StrFormat(
        "sigma_spec const value %.17g is outside [0, 1]", spec.const_value));
  }
  const std::shared_ptr<const SigmaProvider> described = spec.Instantiate();
  const UserIndex users = instance.num_users();  // at least one
  for (const UserIndex u : {UserIndex{0}, users / 2, users - 1}) {
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      const double want = instance.sigma().At(u, t);
      const double got = described->At(u, t);
      if (got != want) {
        return Status::InvalidArgument(util::StrFormat(
            "sigma_spec does not describe the instance's sigma: at user "
            "%u, interval %u it gives %.17g, the instance %.17g",
            u, t, got, want));
      }
    }
  }
  return Status::Ok();
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
  SES_RETURN_IF_ERROR(CheckSigmaSpec(instance, sigma_spec));
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
    out.Append("event_id,location,required_resources,profile\n");
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      out.AppendUint(e).Append(',').AppendUint(instance.event(e).location);
      out.Append(',')
          .AppendDouble(instance.event(e).required_resources, kDoubleDigits)
          .Append(',')
          .AppendUint(instance.EventProfile(e))
          .Append('\n');
    }
    SES_RETURN_IF_ERROR(out.Close());
  }
  {
    BufferedWriter out(dir + "/competing.csv");
    out.Append("competing_id,interval,profile\n");
    for (CompetingIndex c = 0; c < instance.num_competing(); ++c) {
      out.AppendUint(c).Append(',').AppendUint(instance.competing(c).interval);
      out.Append(',').AppendUint(instance.CompetingProfile(c)).Append('\n');
    }
    SES_RETURN_IF_ERROR(out.Close());
  }
  BufferedWriter out(dir + "/profiles.csv");
  out.Append("profile_id,user_id,mu\n");
  for (uint32_t p = 0; p < instance.num_profiles(); ++p) {
    const auto users = instance.ProfileUsers(p);
    const auto values = instance.ProfileValues(p);
    for (size_t i = 0; i < users.size(); ++i) {
      out.AppendUint(p).Append(',').AppendUint(users[i]).Append(',');
      out.AppendDouble(static_cast<double>(values[i]), kFloatDigits)
          .Append('\n');
    }
  }
  return out.Close();
}

Result<SesInstance> LoadInstance(const std::string& dir) {
  // Opened first, so that a directory in the layout before profiles.csv
  // fails naming it; its rows are read last, once the profile column
  // has numbered the profiles.
  CsvInput profiles(dir, "profiles.csv", "profile_id,user_id,mu");
  SES_RETURN_IF_ERROR(profiles.ReadHeader());
  Meta meta;
  SES_RETURN_IF_ERROR(ReadMeta(dir, &meta));
  InstanceBuilder builder;
  builder.SetNumUsers(meta.users)
      .SetNumIntervals(meta.intervals)
      .SetTheta(meta.theta)
      .SetSigma(meta.sigma.Instantiate());

  uint32_t num_profiles = 0;
  {
    CsvInput in(dir, "events.csv",
                "event_id,location,required_resources,profile");
    SES_RETURN_IF_ERROR(in.ReadHeader());
    Status status;
    for (EventIndex e = 0; in.Next(&status); ++e) {
      LocationId location = 0;
      double resources = 0.0;
      uint32_t profile = 0;
      SES_RETURN_IF_ERROR(in.ExpectId(e));
      SES_RETURN_IF_ERROR(in.Index(1, kUint32Bound, &location));
      SES_RETURN_IF_ERROR(in.Parse(2, &resources));
      SES_RETURN_IF_ERROR(ReadProfileId(in, 3, &num_profiles, &profile));
      builder.AddEventWithProfile(location, resources, profile);
    }
    SES_RETURN_IF_ERROR(status);
  }
  {
    CsvInput in(dir, "competing.csv", "competing_id,interval,profile");
    SES_RETURN_IF_ERROR(in.ReadHeader());
    Status status;
    for (CompetingIndex c = 0; in.Next(&status); ++c) {
      IntervalIndex interval = 0;
      uint32_t profile = 0;
      SES_RETURN_IF_ERROR(in.ExpectId(c));
      SES_RETURN_IF_ERROR(in.Index(1, meta.intervals, &interval));
      SES_RETURN_IF_ERROR(ReadProfileId(in, 2, &num_profiles, &profile));
      builder.AddCompetingEventWithProfile(interval, profile);
    }
    SES_RETURN_IF_ERROR(status);
  }
  SES_RETURN_IF_ERROR(
      ReadProfiles(profiles, meta.users, num_profiles, &builder));
  return builder.Build();
}

}  // namespace ses::core
