#include "util/csv.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ses::util {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  auto row = ParseCsvLine("a,b,c");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto row = ParseCsvLine("a,,c,");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"a", "", "c", ""}));
}

TEST(ParseCsvLineTest, QuotedFieldWithComma) {
  auto row = ParseCsvLine("x,\"a,b\",y");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"x", "a,b", "y"}));
}

TEST(ParseCsvLineTest, EscapedQuote) {
  auto row = ParseCsvLine("\"he said \"\"hi\"\"\"");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"he said \"hi\""}));
}

TEST(ParseCsvLineTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

TEST(ParseCsvLineTest, QuoteInUnquotedFieldFails) {
  EXPECT_FALSE(ParseCsvLine("ab\"c").ok());
}

TEST(FormatCsvRowTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(FormatCsvRow({"a", "b"}), "a,b");
  EXPECT_EQ(FormatCsvRow({"a,b"}), "\"a,b\"");
  EXPECT_EQ(FormatCsvRow({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(FormatCsvRow({""}), "");
}

TEST(FormatParseRoundTrip, ArbitraryContent) {
  const CsvRow original{"plain", "with,comma", "with\"quote", "multi\nline",
                        ""};
  auto parsed = ParseCsvLine(FormatCsvRow(original));
  ASSERT_TRUE(parsed.ok());
  // Note: embedded newline survives quoting within a single line here
  // because ParseCsvLine treats the payload as one logical line.
  EXPECT_EQ(parsed.value(), original);
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("ses_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

/// Every line LineReader yields, with its line number.
std::vector<std::pair<std::string, int64_t>> ReadAll(LineReader& in) {
  std::vector<std::pair<std::string, int64_t>> lines;
  std::string_view line;
  while (in.Next(&line)) lines.emplace_back(std::string(line), in.line_no());
  return lines;
}

TEST_F(CsvFileTest, WriteReadRoundTrip) {
  const CsvRow header{"id", "name"};
  const std::vector<CsvRow> rows{{"1", "alpha"}, {"2", "beta,comma"}};
  ASSERT_TRUE(WriteCsvFile(path_.string(), header, rows).ok());

  LineReader in(path_.string());
  std::vector<CsvRow> read;
  for (const auto& [line, line_no] : ReadAll(in)) {
    auto row = ParseCsvLine(line);
    ASSERT_TRUE(row.ok()) << line_no;
    read.push_back(std::move(row).value());
  }
  ASSERT_TRUE(in.status().ok());
  ASSERT_EQ(read.size(), 3u);
  EXPECT_EQ(read[0], header);
  EXPECT_EQ(std::vector<CsvRow>(read.begin() + 1, read.end()), rows);
}

TEST_F(CsvFileTest, ReadWithoutHeader) {
  ASSERT_TRUE(WriteCsvFile(path_.string(), {}, {{"x", "y"}}).ok());
  LineReader in(path_.string());
  const auto lines = ReadAll(in);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, "x,y");
  EXPECT_EQ(lines[0].second, 1);
}

TEST_F(CsvFileTest, MissingFileFails) {
  LineReader in("/nonexistent/dir/file.csv");
  std::string_view line;
  EXPECT_FALSE(in.Next(&line));
  EXPECT_EQ(in.status().code(), StatusCode::kIoError);
}

void WriteRaw(const std::filesystem::path& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  ASSERT_EQ(std::fclose(file), 0);
}

TEST_F(CsvFileTest, CrlfBlankLinesAndMissingFinalNewline) {
  WriteRaw(path_, "a,b\r\n\r\n\nc\r\n  \nlast");
  LineReader in(path_.string());
  const auto lines = ReadAll(in);
  ASSERT_TRUE(in.status().ok());
  // Blank lines are skipped but still counted; "  " is not blank.
  const std::vector<std::pair<std::string, int64_t>> expected{
      {"a,b", 1}, {"c", 4}, {"  ", 5}, {"last", 6}};
  EXPECT_EQ(lines, expected);
  EXPECT_EQ(in.line_no(), 6);
}

TEST_F(CsvFileTest, LinesStraddleAndOutgrowTheBuffer) {
  // Three buffers' worth of short lines whose lengths cycle through
  // 1..13, so lines straddle refill boundaries at varying offsets, then
  // one line longer than the buffer, which makes it grow.
  std::string bytes;
  std::vector<std::pair<std::string, int64_t>> expected;
  for (int64_t i = 0; bytes.size() < 3 * LineReader::kBufferBytes; ++i) {
    std::string line(static_cast<size_t>(i % 13 + 1),
                     static_cast<char>('a' + i % 26));
    bytes += line + (i % 3 == 0 ? "\r\n" : "\n");
    expected.emplace_back(std::move(line), i + 1);
  }
  std::string long_line(LineReader::kBufferBytes + 7, 'z');
  bytes += long_line + "\nend";
  expected.emplace_back(std::move(long_line),
                        static_cast<int64_t>(expected.size()) + 1);
  expected.emplace_back("end", static_cast<int64_t>(expected.size()) + 1);
  WriteRaw(path_, bytes);
  LineReader in(path_.string());
  EXPECT_EQ(ReadAll(in), expected);
  EXPECT_TRUE(in.status().ok());
}

TEST_F(CsvFileTest, EmptyFileHasNoLines) {
  WriteRaw(path_, "");
  LineReader in(path_.string());
  EXPECT_TRUE(ReadAll(in).empty());
  EXPECT_TRUE(in.status().ok());
  EXPECT_EQ(in.line_no(), 0);
}

TEST_F(CsvFileTest, WhereNamesPathAndLine) {
  WriteRaw(path_, "x\ny\n");
  LineReader in(path_.string());
  std::string_view line;
  ASSERT_TRUE(in.Next(&line));
  ASSERT_TRUE(in.Next(&line));
  EXPECT_EQ(in.Where(), path_.string() + ":2");
}

TEST_F(CsvFileTest, WriterFormatsNumbersLikePrintf) {
  const std::vector<double> values{0.0,     1.0,    0.1,     1.0 / 3.0,
                                   2.5e-7,  1e22,   123456789.125,
                                   -0.5,    0.999999f, 1e-300};
  std::string expected;
  {
    BufferedWriter out(path_.string());
    for (double value : values) {
      out.AppendDouble(value, 9).Append(',').AppendDouble(value, 17);
      out.Append('\n');
      char text[64];
      std::snprintf(text, sizeof(text), "%.9g,%.17g\n", value, value);
      expected += text;
    }
    out.AppendUint(0).Append(',').AppendUint(18446744073709551615u);
    expected += "0,18446744073709551615";
    ASSERT_TRUE(out.Close().ok());
  }
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string written(expected.size() + 1, '\0');
  written.resize(std::fread(written.data(), 1, written.size(), file));
  std::fclose(file);
  EXPECT_EQ(written, expected);
}

TEST_F(CsvFileTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteCsvFile("/nonexistent/dir/file.csv", {}, {}).ok());
  BufferedWriter out("/nonexistent/dir/file.csv");
  out.Append("ignored");
  EXPECT_EQ(out.Close().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ses::util
