#include "core/instance_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/objective.h"
#include "tests/alloc_guard.h"
#include "tests/test_util.h"
#include "util/csv.h"

namespace ses::core {
namespace {

class InstanceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ses_inst_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

/// The spec of test::MakeRandomInstance's sigma for \p seed.
SigmaSpec HashSpec(uint64_t seed) {
  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = seed;
  return spec;
}

TEST_F(InstanceIoTest, RoundTripPreservesStructure) {
  test::RandomInstanceConfig config;
  config.seed = 77;
  config.num_users = 20;
  config.num_events = 6;
  config.num_intervals = 4;
  const SesInstance original = test::MakeRandomInstance(config);

  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = config.seed;  // matches MakeRandomInstance's sigma
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());

  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SesInstance& copy = loaded.value();

  EXPECT_EQ(copy.num_users(), original.num_users());
  EXPECT_EQ(copy.num_events(), original.num_events());
  EXPECT_EQ(copy.num_intervals(), original.num_intervals());
  EXPECT_EQ(copy.num_competing(), original.num_competing());
  EXPECT_DOUBLE_EQ(copy.theta(), original.theta());

  for (EventIndex e = 0; e < original.num_events(); ++e) {
    EXPECT_EQ(copy.event(e).location, original.event(e).location);
    EXPECT_DOUBLE_EQ(copy.event(e).required_resources,
                     original.event(e).required_resources);
    auto users_a = original.EventUsers(e);
    auto users_b = copy.EventUsers(e);
    ASSERT_EQ(users_a.size(), users_b.size());
    for (size_t i = 0; i < users_a.size(); ++i) {
      EXPECT_EQ(users_a[i], users_b[i]);
      EXPECT_FLOAT_EQ(original.EventValues(e)[i], copy.EventValues(e)[i]);
    }
  }
  for (CompetingIndex c = 0; c < original.num_competing(); ++c) {
    EXPECT_EQ(copy.competing(c).interval, original.competing(c).interval);
    EXPECT_EQ(copy.CompetingUsers(c).size(),
              original.CompetingUsers(c).size());
  }
}

TEST_F(InstanceIoTest, RoundTripPreservesSolverBehavior) {
  test::RandomInstanceConfig config;
  config.seed = 99;
  const SesInstance original = test::MakeRandomInstance(config);
  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = config.seed;
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok());

  GreedySolver grd;
  SolverOptions options;
  options.k = 3;
  auto a = grd.Solve(original, options);
  auto b = grd.Solve(*loaded, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_NEAR(a->utility, b->utility, 1e-9);
}

TEST_F(InstanceIoTest, ConstSigmaRoundTrip) {
  InstanceBuilder builder;
  builder.SetNumUsers(3).SetNumIntervals(2).SetTheta(4.0).SetSigma(
      std::make_shared<ConstSigma>(0.25));
  builder.AddEvent(0, 1.0, {{0, 0.5f}, {2, 0.75f}});
  builder.AddCompetingEvent(1, {{1, 0.4f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kConst;
  spec.const_value = 0.25;
  ASSERT_TRUE(SaveInstance(*instance, spec, dir_.string()).ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->sigma().At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(loaded->sigma().At(2, 1), 0.25);

  // Utility computed on the copy matches the original exactly.
  Schedule s1(*instance);
  ASSERT_TRUE(s1.Assign(0, 1).ok());
  Schedule s2(*loaded);
  ASSERT_TRUE(s2.Assign(0, 1).ok());
  EXPECT_NEAR(TotalUtility(*instance, s1), TotalUtility(*loaded, s2), 1e-12);
}

TEST_F(InstanceIoTest, LoadFromEmptyDirFails) {
  auto loaded = LoadInstance((dir_ / "missing").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(InstanceIoTest, CorruptMetaFails) {
  test::RandomInstanceConfig config;
  const SesInstance original = test::MakeRandomInstance(config);
  ASSERT_TRUE(
      SaveInstance(original, HashSpec(config.seed), dir_.string()).ok());
  // Truncate meta.csv to just its header.
  ASSERT_TRUE(
      util::WriteCsvFile((dir_ / "meta.csv").string(), {"key", "value"}, {})
          .ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
}

TEST_F(InstanceIoTest, OutOfRangeTripletFails) {
  test::RandomInstanceConfig config;
  config.num_events = 3;
  const SesInstance original = test::MakeRandomInstance(config);
  ASSERT_TRUE(
      SaveInstance(original, HashSpec(config.seed), dir_.string()).ok());
  // Replace the profiles with one row for a profile nothing names.
  std::vector<util::CsvRow> rows{{"99", "0", "0.5"}};
  ASSERT_TRUE(util::WriteCsvFile((dir_ / "profiles.csv").string(),
                                 {"profile_id", "user_id", "mu"}, rows)
                  .ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange);
}

constexpr const char* kInstanceFiles[] = {"meta.csv", "events.csv",
                                          "competing.csv", "profiles.csv"};

/// The bytes of \p path; a file that cannot be opened fails the test.
std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
bool BitEqual(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](T x, T y) {
           return std::bit_cast<std::array<char, sizeof(T)>>(x) ==
                  std::bit_cast<std::array<char, sizeof(T)>>(y);
         });
}

/// Every stored field of \p a and \p b is equal bit for bit.
void ExpectBitIdentical(const SesInstance& a, const SesInstance& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  ASSERT_EQ(a.num_events(), b.num_events());
  ASSERT_EQ(a.num_competing(), b.num_competing());
  EXPECT_EQ(std::bit_cast<uint64_t>(a.theta()),
            std::bit_cast<uint64_t>(b.theta()));
  for (EventIndex e = 0; e < a.num_events(); ++e) {
    EXPECT_EQ(a.event(e).location, b.event(e).location);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.event(e).required_resources),
              std::bit_cast<uint64_t>(b.event(e).required_resources));
    EXPECT_TRUE(BitEqual(a.EventUsers(e), b.EventUsers(e))) << "event " << e;
    EXPECT_TRUE(BitEqual(a.EventValues(e), b.EventValues(e))) << "event " << e;
  }
  for (CompetingIndex c = 0; c < a.num_competing(); ++c) {
    EXPECT_EQ(a.competing(c).interval, b.competing(c).interval);
    EXPECT_TRUE(BitEqual(a.CompetingUsers(c), b.CompetingUsers(c))) << c;
    EXPECT_TRUE(BitEqual(a.CompetingValues(c), b.CompetingValues(c))) << c;
  }
  for (UserIndex u = 0; u < std::min(a.num_users(), 50u); ++u) {
    for (IntervalIndex t = 0; t < a.num_intervals(); ++t) {
      EXPECT_EQ(a.sigma().At(u, t), b.sigma().At(u, t));
    }
  }
}

/// 20 events x 20000 users at density 0.5: 200,096 event triplets plus
/// ~80k competing ones, about 4.7 MB of CSV.
const SesInstance& LargeInstance() {
  static const SesInstance instance = [] {
    test::RandomInstanceConfig config;
    config.seed = 5;
    config.num_users = 20000;
    config.num_events = 20;
    config.num_intervals = 4;
    config.interest_density = 0.5;
    return test::MakeRandomInstance(config);
  }();
  return instance;
}

TEST_F(InstanceIoTest, SaveLoadSaveIsByteIdentical) {
  const SesInstance original = test::MakeMediumInstance();
  const auto first = dir_ / "first";
  const auto second = dir_ / "second";
  std::filesystem::create_directories(first);
  std::filesystem::create_directories(second);
  ASSERT_TRUE(SaveInstance(original, HashSpec(42), first.string()).ok());
  auto loaded = LoadInstance(first.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(original, *loaded);
  ASSERT_TRUE(SaveInstance(*loaded, HashSpec(42), second.string()).ok());
  std::vector<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(first)) {
    written.push_back(entry.path().filename().string());
  }
  std::sort(written.begin(), written.end());
  std::vector<std::string> expected(std::begin(kInstanceFiles),
                                    std::end(kInstanceFiles));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(written, expected);
  for (const char* file : kInstanceFiles) {
    EXPECT_EQ(ReadFile(first / file), ReadFile(second / file)) << file;
  }
}

/// Twins, plus an empty candidate row and an empty competing row, which
/// are twins of each other: the profiles come back as they were saved.
TEST_F(InstanceIoTest, TwinHeavyRoundTripKeepsProfiles) {
  test::RandomInstanceConfig config;
  config.seed = 31;
  config.num_events = 12;
  config.twins = true;
  const SesInstance twins = test::MakeRandomInstance(config);
  InstanceBuilder builder;
  builder.SetNumUsers(twins.num_users())
      .SetNumIntervals(twins.num_intervals())
      .SetTheta(twins.theta())
      .SetSigma(HashSpec(config.seed).Instantiate());
  auto row_of = [](std::span<const UserIndex> users,
                   std::span<const float> values) {
    InstanceBuilder::Row row;
    for (size_t i = 0; i < users.size(); ++i) {
      row.emplace_back(users[i], values[i]);
    }
    return row;
  };
  for (EventIndex e = 0; e < twins.num_events(); ++e) {
    builder.AddEvent(twins.event(e).location,
                     twins.event(e).required_resources,
                     row_of(twins.EventUsers(e), twins.EventValues(e)));
  }
  builder.AddEvent(0, 1.0, {});
  for (CompetingIndex c = 0; c < twins.num_competing(); ++c) {
    builder.AddCompetingEvent(
        twins.competing(c).interval,
        row_of(twins.CompetingUsers(c), twins.CompetingValues(c)));
  }
  builder.AddCompetingEvent(0, {});
  auto original = builder.Build();
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  // Candidate pairs, the empty row, then the (distinct) competing rows.
  EXPECT_EQ(original->num_profiles(),
            (config.num_events + 1) / 2 + 1 + twins.num_competing());

  ASSERT_TRUE(SaveInstance(*original, HashSpec(config.seed), dir_.string())
                  .ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(*original, *loaded);
  EXPECT_EQ(loaded->num_profiles(), original->num_profiles());
  for (EventIndex e = 0; e < original->num_events(); ++e) {
    EXPECT_EQ(loaded->EventProfile(e), original->EventProfile(e)) << e;
  }
  for (CompetingIndex c = 0; c < original->num_competing(); ++c) {
    EXPECT_EQ(loaded->CompetingProfile(c), original->CompetingProfile(c))
        << c;
  }
  EXPECT_EQ(loaded->num_interest_entries(), original->num_interest_entries());
  const EventIndex empty = original->num_events() - 1;
  EXPECT_EQ(loaded->CompetingProfile(original->num_competing() - 1),
            loaded->EventProfile(empty));
  EXPECT_TRUE(loaded->EventUsers(empty).empty());
}

TEST_F(InstanceIoTest, LargeRoundTripStraddlesTheReadBuffer) {
  const SesInstance& original = LargeInstance();
  ASSERT_TRUE(SaveInstance(original, HashSpec(5), dir_.string()).ok());
  // The reader fills 1 MiB at a time: the line holding the buffer's last
  // byte must continue past it.
  const std::string bytes = ReadFile(dir_ / "profiles.csv");
  const size_t boundary = util::LineReader::kBufferBytes;
  ASSERT_GT(bytes.size(), boundary);
  ASSERT_NE(bytes[boundary - 1], '\n');
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdentical(original, *loaded);
}

TEST_F(InstanceIoTest, LoadMakesNoAllocationPerRow) {
  const SesInstance& original = LargeInstance();
  // The event triplets alone reach 200k; competing rows add ~80k. No row
  // has a twin, so each is its own profile.
  const size_t triplets = original.num_interest_entries();
  ASSERT_GE(triplets, 200000u);
  ASSERT_TRUE(SaveInstance(original, HashSpec(5), dir_.string()).ok());
  test::ScopedAllocCheck check;
  auto loaded = LoadInstance(dir_.string());
  const uint64_t allocations = check.allocations();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_LT(allocations, 1000u) << "for " << triplets << " event triplets";
}

/// Rewrites every instance file of \p dir through \p transform.
template <typename Transform>
void RewriteAll(const std::filesystem::path& dir, Transform transform) {
  for (const char* file : kInstanceFiles) {
    WriteFile(dir / file, transform(ReadFile(dir / file)));
  }
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

TEST_F(InstanceIoTest, AcceptsCrlfBlankLinesAndMissingFinalNewline) {
  const SesInstance original = test::MakeMediumInstance();
  const std::vector<std::pair<std::string, std::string (*)(std::string)>>
      variants{
          {"crlf", [](std::string t) { return ReplaceAll(t, "\n", "\r\n"); }},
          {"no final newline",
           [](std::string t) { return t.substr(0, t.size() - 1); }},
          {"blank lines",
           [](std::string t) {
             return "\n" + ReplaceAll(t, "\n", "\n\n\r\n");
           }},
      };
  for (const auto& [name, transform] : variants) {
    ASSERT_TRUE(SaveInstance(original, HashSpec(42), dir_.string()).ok());
    RewriteAll(dir_, transform);
    auto loaded = LoadInstance(dir_.string());
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    ExpectBitIdentical(original, *loaded);
  }
}

/// A tiny valid instance, written file by file so each malformed case
/// below can replace exactly one file. Events name profiles 0 and 1, the
/// competing event names profile 2.
const std::map<std::string, std::string>& ValidFiles() {
  static const std::map<std::string, std::string> files{
      {"meta.csv",
       "key,value\nusers,3\nintervals,2\ntheta,4\nsigma_kind,const\n"
       "sigma_value,0.25\nsigma_seed,0\n"},
      {"events.csv",
       "event_id,location,required_resources,profile\n0,0,1,0\n1,1,2,1\n"},
      {"competing.csv", "competing_id,interval,profile\n0,1,2\n"},
      {"profiles.csv",
       "profile_id,user_id,mu\n0,0,0.5\n0,2,0.75\n1,1,0.25\n2,1,0.4\n"},
  };
  return files;
}

TEST_F(InstanceIoTest, HandWrittenInstanceLoads) {
  for (const auto& [file, bytes] : ValidFiles()) WriteFile(dir_ / file, bytes);
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_events(), 2u);
  EXPECT_EQ(loaded->EventUsers(0).size(), 2u);
  EXPECT_EQ(loaded->CompetingAt(1).size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->sigma().At(0, 0), 0.25);
}

TEST_F(InstanceIoTest, ProfileWithoutRowsIsEmptyAndEmptyRowsAreTwins) {
  for (const auto& [file, bytes] : ValidFiles()) WriteFile(dir_ / file, bytes);
  // Profile 1 has no rows; profile 2 follows it.
  WriteFile(dir_ / "profiles.csv",
            "profile_id,user_id,mu\n0,0,0.5\n0,2,0.75\n2,1,0.4\n");
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_profiles(), 3u);
  EXPECT_TRUE(loaded->EventUsers(1).empty());
  ASSERT_EQ(loaded->CompetingUsers(0).size(), 1u);
  EXPECT_EQ(loaded->CompetingUsers(0)[0], 1u);

  // Profiles 1 and 2 both have no rows: one empty profile.
  WriteFile(dir_ / "profiles.csv", "profile_id,user_id,mu\n0,0,0.5\n");
  loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_profiles(), 2u);
  EXPECT_EQ(loaded->CompetingProfile(0), loaded->EventProfile(1));
  EXPECT_TRUE(loaded->CompetingUsers(0).empty());
}

TEST_F(InstanceIoTest, EarlierLayoutFailsNamingProfilesCsv) {
  // One row per event in two interest files, and no profile column.
  const std::map<std::string, std::string> earlier{
      {"meta.csv", ValidFiles().at("meta.csv")},
      {"events.csv", "event_id,location,required_resources\n0,0,1\n1,1,2\n"},
      {"event_interests.csv",
       "event_id,user_id,mu\n1,1,0.25\n0,0,0.5\n0,2,0.75\n"},
      {"competing.csv", "competing_id,interval\n0,1\n"},
      {"competing_interests.csv", "competing_id,user_id,mu\n0,1,0.4\n"},
  };
  for (const auto& [file, bytes] : earlier) WriteFile(dir_ / file, bytes);
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("profiles.csv"), std::string::npos)
      << loaded.status().ToString();
}

struct MalformedCase {
  const char* name;
  const char* file;
  const char* bytes;
  util::StatusCode code;
  const char* where;  // "<file>:<line>" the message must contain
};

class MalformedInputTest : public InstanceIoTest,
                           public ::testing::WithParamInterface<MalformedCase> {
};

TEST_P(MalformedInputTest, FailsWithTypedErrorNamingFileAndLine) {
  const MalformedCase& c = GetParam();
  for (const auto& [file, bytes] : ValidFiles()) WriteFile(dir_ / file, bytes);
  WriteFile(dir_ / c.file, c.bytes);
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), c.code) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(c.where), std::string::npos)
      << loaded.status().ToString();
}

using util::StatusCode;
constexpr const char* kEventsHeader =
    "event_id,location,required_resources,profile\n";

// Profile ids are bounded by the profiles named before their line, so an
// id of 4294967295 is rejected before anything is sized from it.
INSTANTIATE_TEST_SUITE_P(
    Table, MalformedInputTest,
    ::testing::Values(
        MalformedCase{"TruncatedRow", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,0,1,0\n1,1\n",
                      StatusCode::kParseError, "events.csv:3"},
        MalformedCase{"ExtraField", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,0.5,9\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"EmptyField", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,,1,0\n",
                      StatusCode::kParseError, "events.csv:2"},
        MalformedCase{"NonNumericField", "competing.csv",
                      "competing_id,interval,profile\n0,abc,2\n",
                      StatusCode::kParseError, "competing.csv:2"},
        MalformedCase{"TrailingGarbage", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,0.5x\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"HeaderOnlyMeta", "meta.csv", "key,value\n",
                      StatusCode::kParseError, "meta.csv:1"},
        MalformedCase{"OutOfRangeTripletId", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,0.5\n3,0,0.5\n",
                      StatusCode::kOutOfRange, "profiles.csv:3"},
        MalformedCase{"ProfileIdWrapsUint32", "profiles.csv",
                      "profile_id,user_id,mu\n4294967295,0,0.5\n",
                      StatusCode::kOutOfRange, "profiles.csv:2"},
        MalformedCase{"NegativeTripletId", "profiles.csv",
                      "profile_id,user_id,mu\n-1,0,0.5\n",
                      StatusCode::kOutOfRange, "profiles.csv:2"},
        MalformedCase{"ProfilesOutOfOrder", "profiles.csv",
                      "profile_id,user_id,mu\n1,1,0.25\n0,0,0.5\n",
                      StatusCode::kParseError, "profiles.csv:3"},
        MalformedCase{"EventProfileSkipsOne", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,0,1,1\n1,1,2,0\n",
                      StatusCode::kOutOfRange, "events.csv:2"},
        MalformedCase{"EventProfileWrapsUint32", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,0,1,0\n1,1,2,4294967295\n",
                      StatusCode::kOutOfRange, "events.csv:3"},
        MalformedCase{"CompetingProfileWrapsUint32", "competing.csv",
                      "competing_id,interval,profile\n0,1,4294967295\n",
                      StatusCode::kOutOfRange, "competing.csv:2"},
        MalformedCase{"UserBeyondUsers", "profiles.csv",
                      "profile_id,user_id,mu\n0,3,0.5\n",
                      StatusCode::kOutOfRange, "profiles.csv:2"},
        MalformedCase{"UsersNotAscending", "profiles.csv",
                      "profile_id,user_id,mu\n0,2,0.75\n0,0,0.5\n",
                      StatusCode::kParseError, "profiles.csv:3"},
        MalformedCase{"UserRepeated", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,0.5\n0,0,0.75\n",
                      StatusCode::kParseError, "profiles.csv:3"},
        MalformedCase{"MuAboveOne", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,1.5\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"MuZero", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,0.5\n1,1,0\n",
                      StatusCode::kParseError, "profiles.csv:3"},
        MalformedCase{"MuNan", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,nan\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"MuRoundsToFloatZero", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,1e-50\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"MuBeyondFloatRange", "profiles.csv",
                      "profile_id,user_id,mu\n0,0,1e300\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"UsersWrapUint32", "meta.csv",
                      "key,value\nusers,4294967297\nintervals,2\ntheta,4\n"
                      "sigma_kind,hash\nsigma_value,0.5\nsigma_seed,1\n",
                      StatusCode::kOutOfRange, "meta.csv:2"},
        MalformedCase{"LocationWrapsUint32", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,4294967296,1,0\n",
                      StatusCode::kOutOfRange, "events.csv:2"},
        MalformedCase{"IntervalBeyondIntervals", "competing.csv",
                      "competing_id,interval,profile\n0,2,2\n",
                      StatusCode::kOutOfRange, "competing.csv:2"},
        MalformedCase{"EventIdOutOfOrder", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,0,1,0\n2,1,2,1\n",
                      StatusCode::kParseError, "events.csv:3"},
        MalformedCase{"CompetingIdNotRowPosition", "competing.csv",
                      "competing_id,interval,profile\n1,1,2\n",
                      StatusCode::kParseError, "competing.csv:2"},
        MalformedCase{"LeadingPlus", "events.csv",
                      "event_id,location,required_resources,profile\n"
                      "0,+1,1,0\n",
                      StatusCode::kParseError, "events.csv:2"},
        MalformedCase{"SurroundingWhitespace", "profiles.csv",
                      "profile_id,user_id,mu\n0, 1,0.5\n",
                      StatusCode::kParseError, "profiles.csv:2"},
        MalformedCase{"WrongHeader", "competing.csv",
                      "interval,competing_id,profile\n0,1,2\n",
                      StatusCode::kParseError, "competing.csv:1"},
        MalformedCase{"UnknownSigmaKind", "meta.csv",
                      "key,value\nusers,3\nintervals,2\ntheta,4\n"
                      "sigma_kind,dense\nsigma_value,0.5\nsigma_seed,1\n",
                      StatusCode::kParseError, "meta.csv:5"},
        MalformedCase{"ConstSigmaAboveOne", "meta.csv",
                      "key,value\nusers,3\nintervals,2\ntheta,4\n"
                      "sigma_kind,const\nsigma_value,1.5\nsigma_seed,0\n",
                      StatusCode::kParseError, "meta.csv:6"},
        MalformedCase{"ConstSigmaNan", "meta.csv",
                      "key,value\nusers,3\nintervals,2\ntheta,4\n"
                      "sigma_value,nan\nsigma_kind,const\nsigma_seed,0\n",
                      StatusCode::kParseError, "meta.csv:6"},
        MalformedCase{"SeedNotAnInteger", "meta.csv",
                      "key,value\nusers,3\nintervals,2\ntheta,4\n"
                      "sigma_kind,hash\nsigma_value,0.5\nsigma_seed,-1\n",
                      StatusCode::kParseError, "meta.csv:7"}),
    [](const ::testing::TestParamInfo<MalformedCase>& param) {
      return std::string(param.param.name);
    });

TEST_F(InstanceIoTest, NonFiniteThetaAndResourcesAreRejected) {
  for (const char* value : {"nan", "inf", "-inf", "-1"}) {
    for (const auto& [file, bytes] : ValidFiles()) {
      WriteFile(dir_ / file, bytes);
    }
    WriteFile(dir_ / "meta.csv",
              std::string("key,value\nusers,3\nintervals,2\ntheta,") + value +
                  "\nsigma_kind,hash\nsigma_value,0.5\nsigma_seed,1\n");
    auto loaded = LoadInstance(dir_.string());
    ASSERT_FALSE(loaded.ok()) << "theta " << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

    WriteFile(dir_ / "meta.csv", ValidFiles().at("meta.csv"));
    WriteFile(dir_ / "events.csv", std::string(kEventsHeader) + "0,0," +
                                       value + ",0\n1,1,2,1\n");
    loaded = LoadInstance(dir_.string());
    ASSERT_FALSE(loaded.ok()) << "resources " << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(InstanceBuilderTest, RejectsNonFiniteValues) {
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -0.5}) {
    InstanceBuilder theta;
    theta.SetNumUsers(1).SetNumIntervals(1).SetTheta(bad).SetSigma(
        std::make_shared<ConstSigma>(0.5));
    EXPECT_EQ(theta.Build().status().code(), StatusCode::kInvalidArgument);

    InstanceBuilder resources;
    resources.SetNumUsers(1).SetNumIntervals(1).SetTheta(1.0).SetSigma(
        std::make_shared<ConstSigma>(0.5));
    resources.AddEvent(0, bad, {{0, 0.5f}});
    EXPECT_EQ(resources.Build().status().code(),
              StatusCode::kInvalidArgument);
  }
}

// SaveInstance checks its spec against the instance's sigma, at every
// interval for the first, middle and last user, before it writes a file.
TEST_F(InstanceIoTest, SaveRejectsASpecThatDoesNotDescribeSigma) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(4.0).SetSigma(
      std::make_shared<DenseSigma>(
          std::vector<std::vector<float>>{{0.25f, 0.75f}, {0.25f, 0.25f}}));
  builder.AddEvent(0, 1.0, {{0, 0.5f}, {1, 0.5f}});
  auto dense = builder.Build();
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  SigmaSpec quarter;
  quarter.kind = SigmaSpec::Kind::kConst;
  quarter.const_value = 0.25;

  const util::Status hashed = SaveInstance(*dense, HashSpec(1), dir_.string());
  EXPECT_EQ(hashed.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(hashed.message().find("user 0, interval 0"), std::string::npos)
      << hashed.ToString();
  // The constant fits user 0 everywhere and user 1 at interval 1 only.
  const util::Status constant = SaveInstance(*dense, quarter, dir_.string());
  EXPECT_EQ(constant.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(constant.message().find("user 1, interval 0"), std::string::npos)
      << constant.ToString();
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(InstanceIoTest, SaveRejectsAWrongSeedOrConstant) {
  test::RandomInstanceConfig config;
  config.seed = 77;
  const SesInstance hashed = test::MakeRandomInstance(config);
  EXPECT_EQ(SaveInstance(hashed, HashSpec(78), dir_.string()).code(),
            util::StatusCode::kInvalidArgument);

  InstanceBuilder builder;
  builder.SetNumUsers(3).SetNumIntervals(2).SetTheta(4.0).SetSigma(
      std::make_shared<ConstSigma>(0.25));
  builder.AddEvent(0, 1.0, {{0, 0.5f}});
  auto constant = builder.Build();
  ASSERT_TRUE(constant.ok());
  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kConst;
  for (const double wrong : {0.5, 1.5, -0.25}) {
    spec.const_value = wrong;
    EXPECT_EQ(SaveInstance(*constant, spec, dir_.string()).code(),
              util::StatusCode::kInvalidArgument)
        << wrong;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(InstanceIoTest, SaveWithAMatchingSpecRoundTripsSigma) {
  auto expect_round_trip = [this](const SesInstance& original,
                                  const SigmaSpec& spec) {
    ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
    auto loaded = LoadInstance(dir_.string());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (UserIndex u = 0; u < original.num_users(); ++u) {
      for (IntervalIndex t = 0; t < original.num_intervals(); ++t) {
        EXPECT_EQ(loaded->sigma().At(u, t), original.sigma().At(u, t));
      }
    }
  };
  test::RandomInstanceConfig config;
  config.seed = 77;
  expect_round_trip(test::MakeRandomInstance(config), HashSpec(config.seed));

  InstanceBuilder builder;
  builder.SetNumUsers(3).SetNumIntervals(2).SetTheta(4.0).SetSigma(
      std::make_shared<ConstSigma>(0.25));
  builder.AddEvent(0, 1.0, {{0, 0.5f}});
  auto constant = builder.Build();
  ASSERT_TRUE(constant.ok());
  SigmaSpec quarter;
  quarter.kind = SigmaSpec::Kind::kConst;
  quarter.const_value = 0.25;
  expect_round_trip(*constant, quarter);
}

TEST(SigmaSpecTest, InstantiateMatchesKind) {
  SigmaSpec const_spec;
  const_spec.kind = SigmaSpec::Kind::kConst;
  const_spec.const_value = 0.6;
  auto const_sigma = const_spec.Instantiate();
  EXPECT_DOUBLE_EQ(const_sigma->At(5, 7), 0.6);

  SigmaSpec hash_spec;
  hash_spec.kind = SigmaSpec::Kind::kHash;
  hash_spec.seed = 42;
  auto hash_sigma = hash_spec.Instantiate();
  HashUniformSigma reference(42);
  EXPECT_DOUBLE_EQ(hash_sigma->At(5, 7), reference.At(5, 7));
}

}  // namespace
}  // namespace ses::core
