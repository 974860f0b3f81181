#include <gtest/gtest.h>

#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace eco::util {
namespace {

TEST(TableTest, RendersHeaderAndRows) {
  Table table({"A", "Bee"});
  table.add_row({"1", "2"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| A"), std::string::npos);
  EXPECT_NE(out.find("| Bee"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.column_count(), 2u);
}

TEST(TableTest, ColumnWidthAdaptsToWidestCell) {
  Table table({"x"});
  table.add_row({"wide-cell-content"});
  const std::string out = table.render();
  EXPECT_NE(out.find("wide-cell-content"), std::string::npos);
  // Every line has the same length.
  std::size_t line_len = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, line_len);
    pos = next + 1;
  }
}

TEST(TableTest, SeparatorProducesRule) {
  Table table({"a"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.render();
  // header rule + top + separator + bottom = 4 rules
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+-", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(FmtTest, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 3), "1.235");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt_pct(0.8432, 2), "84.32%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, WriterProducesHeaderAndRows) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"1", "2"});
  csv.add_row({"3", "4,5"});
  const std::string out = csv.to_string();
  EXPECT_EQ(out, "x,y\n1,2\n3,\"4,5\"\n");
  EXPECT_EQ(csv.row_count(), 2u);
}

TEST(CsvTest, ShortRowsArePadded) {
  CsvWriter csv({"a", "b", "c"});
  csv.add_row({"1"});
  EXPECT_EQ(csv.to_string(), "a,b,c\n1,,\n");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingleToken) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("ecofusion", "eco"));
  EXPECT_FALSE(starts_with("eco", "ecofusion"));
}

TEST(LoggingTest, LevelFilterSuppressesBelowThreshold) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Just exercise the path; output goes to stderr.
  log_info() << "suppressed";
  log_error() << "emitted";
  set_log_level(original);
}

TEST(ParseSizeTest, PlainDigitsParse) {
  EXPECT_EQ(parse_size("12"), 12u);
  EXPECT_EQ(parse_size("0"), 0u);  // zero parses; the caller decides
  EXPECT_EQ(parse_size("007"), 7u);
}

TEST(ParseSizeTest, SignsAreRejected) {
  // Must not wrap to SIZE_MAX the way strtoul reads "-1".
  EXPECT_EQ(parse_size("-1"), std::nullopt);
  EXPECT_EQ(parse_size("+1"), std::nullopt);
}

TEST(ParseSizeTest, SpacesAndTrailingCharactersAreRejected) {
  EXPECT_EQ(parse_size("8x"), std::nullopt);
  EXPECT_EQ(parse_size("0x"), std::nullopt);
  EXPECT_EQ(parse_size(" 8"), std::nullopt);
  EXPECT_EQ(parse_size("8 "), std::nullopt);
  EXPECT_EQ(parse_size(""), std::nullopt);
}

TEST(ParseSizeTest, OverflowIsRejected) {
  EXPECT_EQ(parse_size("99999999999999999999999"), std::nullopt);
}

}  // namespace
}  // namespace eco::util
