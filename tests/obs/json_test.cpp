#include "ff/obs/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

namespace ff::obs {
namespace {

std::string escaped(std::string_view s) {
  std::ostringstream os;
  write_json_escaped(os, s);
  return os.str();
}

std::string number(double v) {
  std::ostringstream os;
  write_json_number(os, v);
  return os.str();
}

TEST(JsonEncoder, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(escaped("pi-1"), "pi-1");
  EXPECT_EQ(escaped("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escaped("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(escaped(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEncoder, NumbersAreIntegralNineDigitsOrNull) {
  EXPECT_EQ(number(42.0), "42");
  EXPECT_EQ(number(-3.0), "-3");
  EXPECT_EQ(number(27.5), "27.5");
  EXPECT_EQ(number(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(number(1e15), "1e+15");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
}

}  // namespace
}  // namespace ff::obs
