/// Running solvers on one sweep point through exp::RunSweep, and
/// rendering and writing the records it returns.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "exp/figures.h"
#include "exp/sweep.h"
#include "tests/sweep_test_util.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace ses::exp {
namespace {

using test::MakePoints;
using test::SweepDataset;

TEST(RunnerTest, ProducesOneRecordPerSolver) {
  WorkloadFactory factory(SweepDataset());
  auto records =
      RunSweep(factory, MakePoints({3}), {"grd", "top", "rand"}, 3);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].solver, "grd");
  EXPECT_EQ((*records)[1].solver, "top");
  EXPECT_EQ((*records)[2].solver, "rand");
  for (const RunRecord& record : *records) {
    EXPECT_EQ(record.x, 3);
    EXPECT_GE(record.utility, 0.0);
    EXPECT_GE(record.measurement.seconds, 0.0);
    EXPECT_EQ(record.assignments, 3u);
  }
}

TEST(RunnerTest, UnknownSolverFailsBeforeAnyBuild) {
  WorkloadFactory factory(SweepDataset());
  // Point 0 cannot be built; had any build run, its error would be the
  // lowest-index failure.
  auto points = MakePoints({4, 6});
  points[0].config.num_candidate_events = 1;
  for (size_t jobs : {1u, 0u}) {
    auto result = RunSweep(factory, points, {"grd", "bogus"}, jobs);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound)
        << result.status().ToString();
  }
}

TEST(FiguresTest, RenderContainsSolversAndValues) {
  std::vector<RunRecord> records;
  records.push_back({"grd", 100, 123.45, 10, 100, {0.5}});
  records.push_back({"top", 100, 67.89, 5, 100, {0.1}});
  records.push_back({"grd", 200, 222.22, 20, 200, {1.5}});

  const std::string table = RenderFigure(
      "Fig 1a", "k", {"grd", "top"}, records, Metric::kUtility);
  EXPECT_NE(table.find("Fig 1a"), std::string::npos);
  EXPECT_NE(table.find("grd"), std::string::npos);
  EXPECT_NE(table.find("123.45"), std::string::npos);
  EXPECT_NE(table.find("100"), std::string::npos);
  EXPECT_NE(table.find("200"), std::string::npos);
  // Missing (200, top) cell renders as "-".
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(FiguresTest, RenderSecondsMetric) {
  std::vector<RunRecord> records;
  records.push_back({"grd", 100, 123.45, 10, 100, {0.5}});
  const std::string table =
      RenderFigure("Fig 1b", "k", {"grd"}, records, Metric::kSeconds);
  EXPECT_NE(table.find("0.5000"), std::string::npos);
}

TEST(FiguresTest, CsvRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ses_records_" + std::to_string(::getpid()) + ".csv");
  // Two ulps above 279790.748: 16 significant digits read back a
  // different double, so only all 17 survive the round trip.
  const double utility = 279790.74800000014;
  ASSERT_NE(std::strtod(util::StrFormat("%.16g", utility).c_str(), nullptr),
            utility);
  std::vector<RunRecord> records;
  records.push_back({"grd", 100, utility, 42, 100, {0.25}});
  ASSERT_TRUE(WriteRecordsCsv(path.string(), records).ok());

  std::vector<util::CsvRow> rows;
  util::LineReader in(path.string());
  std::string_view line;
  while (in.Next(&line)) {
    auto row = util::ParseCsvLine(line);
    ASSERT_TRUE(row.ok());
    rows.push_back(std::move(row).value());
  }
  ASSERT_TRUE(in.status().ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "x");
  EXPECT_EQ(rows[1][0], "100");
  EXPECT_EQ(rows[1][1], "grd");
  EXPECT_EQ(std::bit_cast<uint64_t>(std::strtod(rows[1][2].c_str(), nullptr)),
            std::bit_cast<uint64_t>(utility))
      << rows[1][2];
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ses::exp
