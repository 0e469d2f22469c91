#include "common/cli_args.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace fdeta {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(CliArgs, ParsesFlagValuePairs) {
  const auto args = parse({"--in", "a.csv", "--week", "24"});
  EXPECT_EQ(args.size(), 2u);
  EXPECT_EQ(args.get("in", ""), "a.csv");
  EXPECT_EQ(args.get_long("week", -1), 24);
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const auto args = parse({"--x", "1"});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_long("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
  EXPECT_TRUE(args.has("x"));
}

TEST(CliArgs, RequireValueThrowsWhenAbsent) {
  const auto args = parse({"--x", "1"});
  EXPECT_EQ(args.require_value("x"), "1");
  EXPECT_THROW(args.require_value("y"), InvalidArgument);
}

TEST(CliArgs, RejectsBareToken) {
  EXPECT_THROW(parse({"notaflag", "1"}), InvalidArgument);
}

TEST(CliArgs, TrailingFlagIsBoolean) {
  const auto args = parse({"--x"});
  EXPECT_TRUE(args.has("x"));
  EXPECT_EQ(args.get("x", "dflt"), "");
}

TEST(CliArgs, FlagFollowedByFlagIsBoolean) {
  const auto args = parse({"--explain", "--in", "a.csv", "--verbose"});
  EXPECT_EQ(args.size(), 3u);
  EXPECT_TRUE(args.has("explain"));
  EXPECT_EQ(args.get("explain", "dflt"), "");
  EXPECT_EQ(args.get("in", ""), "a.csv");
  EXPECT_TRUE(args.has("verbose"));
}

TEST(CliArgs, NumericParsingErrors) {
  const auto args = parse({"--n", "abc"});
  EXPECT_THROW(args.get_long("n", 0), DataError);
  EXPECT_THROW(args.get_double("n", 0.0), DataError);
}

TEST(CliArgs, CountsRejectNegativeAndMalformedValues) {
  const auto args = parse({"--n", "12", "--neg", "-1", "--bad", "3x"});
  EXPECT_EQ(args.get_count("n", 0), 12u);
  EXPECT_EQ(args.get_count("absent", 7), 7u);
  for (const char* flag : {"neg", "bad"}) {
    try {
      args.get_count(flag, 0);
      ADD_FAILURE() << "--" << flag << " accepted";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliArgs, DoubleValues) {
  const auto args = parse({"--tol", "0.125"});
  EXPECT_DOUBLE_EQ(args.get_double("tol", 0.0), 0.125);
}

TEST(CliArgs, EmptyArgListIsValid) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv, 1);
  EXPECT_EQ(args.size(), 0u);
}

}  // namespace
}  // namespace fdeta
