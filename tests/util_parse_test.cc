#include "src/util/parse.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace whodunit::util {
namespace {

TEST(ParseNumberTest, AcceptsWholeStringsInRange) {
  EXPECT_EQ(ParseNumber<int64_t>("42", 0, 100), 42);
  EXPECT_EQ(ParseNumber<int64_t>("-5", -10, 10), -5);
  EXPECT_EQ(ParseNumber<int64_t>("0", 0, 0), 0);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615", 0,
                                  std::numeric_limits<uint64_t>::max()),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseNumber("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(ParseNumber("1e2", 0.0, 1e3), 100.0);
  EXPECT_EQ(ParseNumber("1", 0.0, 1.0), 1.0);
}

TEST(ParseNumberTest, RejectsMalformedText) {
  for (const char* bad : {"", "abc", "12x", " 12", "12 ", "1.5", "+3", "0x10"}) {
    EXPECT_FALSE(ParseNumber<int64_t>(bad, -100, 100).has_value()) << "'" << bad << "'";
  }
  for (const char* bad : {"", "abc", "0.5x", "nan", "--1"}) {
    EXPECT_FALSE(ParseNumber(bad, -1.0, 1.0).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseNumber<uint64_t>("-1", 0, 10).has_value());
}

TEST(ParseNumberTest, RejectsOutOfRangeValues) {
  EXPECT_FALSE(ParseNumber<int64_t>("0", 1, 10).has_value());
  EXPECT_FALSE(ParseNumber<int64_t>("11", 1, 10).has_value());
  EXPECT_FALSE(ParseNumber<int64_t>("99999999999999999999", 0,
                                    std::numeric_limits<int64_t>::max())
                   .has_value());
  EXPECT_FALSE(ParseNumber("7", 0.0, 1.0).has_value());
  EXPECT_FALSE(ParseNumber("-1", 0.0, 1e9).has_value());
  EXPECT_FALSE(ParseNumber("inf", 0.0, 1e9).has_value());
}

TEST(ParseNumberTest, OrExitReturnsValidValues) {
  EXPECT_EQ(ParseNumberOrExit<int64_t>("--clients", "12", 1, 100), 12);
  EXPECT_EXIT(ParseNumberOrExit<int64_t>("--clients", "abc", 1, 100),
              testing::ExitedWithCode(2), "bad value 'abc' for --clients");
  EXPECT_EXIT(ParseNumberOrExit("BENCH_SAMPLE_RATE", "7", 0.0, 1.0),
              testing::ExitedWithCode(2), "BENCH_SAMPLE_RATE: want a number in \\[0, 1\\]");
}

}  // namespace
}  // namespace whodunit::util
