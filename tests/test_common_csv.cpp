#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/env.h"
#include "common/error.h"

namespace fdeta {
namespace {

TEST(SplitCsvLine, SplitsSimpleFields) {
  const auto fields = split_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLine, KeepsEmptyFields) {
  const auto fields = split_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLine, SingleFieldLine) {
  const auto fields = split_csv_line("hello");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(SplitCsvLine, CustomDelimiter) {
  const auto fields = split_csv_line("1;2;3", ';');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "3");
}

TEST(ParseDouble, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25", "test"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1.5", "test"), -1.5);
  EXPECT_DOUBLE_EQ(parse_double("0", "test"), 0.0);
}

TEST(ParseDouble, SkipsLeadingWhitespace) {
  EXPECT_DOUBLE_EQ(parse_double("  2.5", "test"), 2.5);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW(parse_double("abc", "test"), DataError);
  EXPECT_THROW(parse_double("1.5x", "test"), DataError);
  EXPECT_THROW(parse_double("", "test"), DataError);
}

TEST(ParseDouble, RejectsNonFiniteValues) {
  // std::from_chars parses these; no reading, loss fraction or flag may.
  for (const char* token : {"inf", "-inf", "nan", "infinity", "-NaN"}) {
    EXPECT_THROW(parse_double(token, "test"), DataError) << token;
  }
}

TEST(ParseLong, ParsesIntegers) {
  EXPECT_EQ(parse_long("42", "test"), 42);
  EXPECT_EQ(parse_long("-7", "test"), -7);
}

TEST(ParseLong, RejectsFloats) {
  EXPECT_THROW(parse_long("1.5", "test"), DataError);
}

TEST(ReadLines, StripsCrAndIgnoresTrailingBlanks) {
  std::istringstream in("a\r\nb\nc\r\n\n\r\n");
  const auto lines = read_lines(in);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(ReadLines, RejectsInteriorBlankLines) {
  // A silently-dropped interior blank would shift every later row up one
  // position - in a week-per-row dataset that misaligns the train/test
  // split and scores the wrong weeks.
  std::istringstream in("a\n\nb\n");
  try {
    read_lines(in);
    FAIL() << "interior blank line was not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(WriteCsv, WritesHeaderAndRows) {
  std::ostringstream out;
  write_csv(out, {"x", "y"}, {{1.0, 2.0}, {3.5, 4.5}});
  EXPECT_EQ(out.str(), "x,y\n1,2\n3.5,4.5\n");
}

TEST(WriteCsv, EmptyHeaderSkipped) {
  std::ostringstream out;
  write_csv(out, {}, {{1.0}});
  EXPECT_EQ(out.str(), "1\n");
}

TEST(Env, ReadsIntegerOrFallsBack) {
  ::setenv("FDETA_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(env_size("FDETA_TEST_ENV_INT", 7), 42u);
  ::setenv("FDETA_TEST_ENV_INT", "not-a-number", 1);
  EXPECT_EQ(env_size("FDETA_TEST_ENV_INT", 7), 7u);
  ::unsetenv("FDETA_TEST_ENV_INT");
  EXPECT_EQ(env_size("FDETA_TEST_ENV_INT", 7), 7u);
}

TEST(Env, ReadsDoubleOrFallsBack) {
  ::setenv("FDETA_TEST_ENV_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("FDETA_TEST_ENV_DBL", 1.0), 2.5);
  ::setenv("FDETA_TEST_ENV_DBL", "", 1);
  EXPECT_DOUBLE_EQ(env_double("FDETA_TEST_ENV_DBL", 1.0), 1.0);
  ::unsetenv("FDETA_TEST_ENV_DBL");
}

}  // namespace
}  // namespace fdeta
