#include "src/common/strfmt.hpp"

#include <gtest/gtest.h>

namespace netfail {
namespace {

TEST(Strformat, Basic) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Strformat, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(strformat("%s!", big.c_str()).size(), 501u);
}

TEST(Split, Basic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, NoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitWhitespace, Basic) {
  const auto parts = split_whitespace("  ip  address\t10.0.0.1 \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "ip");
  EXPECT_EQ(parts[1], "address");
  EXPECT_EQ(parts[2], "10.0.0.1");
}

TEST(SplitWhitespace, Empty) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace("   \t\n").empty());
}

TEST(Trim, Basic) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(ParseUint, Valid) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_uint("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_uint("12345", v));
  EXPECT_EQ(v, 12345u);
}

TEST(ParseUint, Invalid) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_uint("", v));
  EXPECT_FALSE(parse_uint("-1", v));
  EXPECT_FALSE(parse_uint("12a", v));
  EXPECT_FALSE(parse_uint(" 1", v));
}

TEST(ParseUint, OverflowFailsInsteadOfWrapping) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_uint("18446744073709551615", v));  // 2^64 - 1
  EXPECT_EQ(v, 18446744073709551615u);
  v = 7;
  // 2^64 + 1 would wrap to 1; 2^64 + 6 to 6. Both fail and leave `v`.
  EXPECT_FALSE(parse_uint("18446744073709551617", v));
  EXPECT_FALSE(parse_uint("18446744073709551622", v));
  EXPECT_FALSE(parse_uint("99999999999999999999999", v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(parse_uint("0000000000000000000000001", v));  // long, small
  EXPECT_EQ(v, 1u);
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(WithCommas, Grouping) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(11095550), "11,095,550");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace netfail
