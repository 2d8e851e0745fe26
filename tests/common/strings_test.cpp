#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hetsched {
namespace {

TEST(FormatBytes, PlainBytes) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(FormatBytes, DecimalUnits) {
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(64e6), "64.00 MB");
  EXPECT_EQ(format_bytes(1.5e9), "1.50 GB");
  EXPECT_EQ(format_bytes(2e12), "2.00 TB");
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 1), "3.0");
  EXPECT_EQ(format_fixed(-1.005, 0), "-1");
}

TEST(FormatPercent, FromFraction) {
  EXPECT_EQ(format_percent(0.412), "41.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.0), "0.0%");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(ParseBoundedUint, AcceptsWholeNumbersUpToTheCeiling) {
  EXPECT_EQ(parse_bounded_uint("0", 256, "--jobs"), 0u);
  EXPECT_EQ(parse_bounded_uint("256", 256, "--jobs"), 256u);
  EXPECT_EQ(parse_bounded_uint("18446744073709551615", UINT64_MAX, "--seed"),
            UINT64_MAX);
}

TEST(ParseBoundedUint, RejectsMalformedNegativeAndOversizedValues) {
  // Past the ceiling: a thread count is refused before any pool is sized.
  EXPECT_THROW(parse_bounded_uint("257", 256, "--jobs"), InvalidArgument);
  EXPECT_THROW(parse_bounded_uint("4294967295", 256, "--workers"),
               InvalidArgument);
  EXPECT_THROW(parse_bounded_uint("18446744073709551616", UINT64_MAX, "--seed"),
               InvalidArgument);
  // Never wrapped: -1 is not 2^32 - 1.
  EXPECT_THROW(parse_bounded_uint("-1", 256, "--jobs"), InvalidArgument);
  for (const char* text : {"", "abc", "12x", " 3", "+3", "3 ", "1e3"})
    EXPECT_THROW(parse_bounded_uint(text, 256, "--tasks"), InvalidArgument)
        << "'" << text << "'";
}

TEST(ParseBoundedUint, ErrorNamesTheFlag) {
  try {
    parse_bounded_uint("abc", 6144, "--tasks");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("--tasks"), std::string::npos);
  }
}

}  // namespace
}  // namespace hetsched
