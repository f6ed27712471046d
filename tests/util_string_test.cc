#include "util/string_util.h"

#include <gtest/gtest.h>

namespace ses::util {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, RemovesWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseInt64Test, Valid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  13 ").value(), 13);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseInt64Test, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(ParseBoolTest, AcceptedForms) {
  EXPECT_TRUE(ParseBool("true").value());
  EXPECT_TRUE(ParseBool("TRUE").value());
  EXPECT_TRUE(ParseBool("1").value());
  EXPECT_TRUE(ParseBool("Yes").value());
  EXPECT_FALSE(ParseBool("false").value());
  EXPECT_FALSE(ParseBool("0").value());
  EXPECT_FALSE(ParseBool("no").value());
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(WithThousandsSepTest, Basic) {
  EXPECT_EQ(WithThousandsSep(0), "0");
  EXPECT_EQ(WithThousandsSep(999), "999");
  EXPECT_EQ(WithThousandsSep(1000), "1,000");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(-42444), "-42,444");
}

}  // namespace
}  // namespace ses::util
