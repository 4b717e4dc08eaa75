#include "src/topology/ipv4.hpp"

#include <gtest/gtest.h>

namespace netfail {
namespace {

TEST(Ipv4Address, ToString) {
  EXPECT_EQ(Ipv4Address(137, 164, 0, 1).to_string(), "137.164.0.1");
  EXPECT_EQ(Ipv4Address(0, 0, 0, 0).to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address(255, 255, 255, 255).to_string(), "255.255.255.255");
}

TEST(Ipv4Address, ParseValid) {
  const auto a = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, Ipv4Address(10, 1, 2, 3));
}

TEST(Ipv4Address, ParseInvalid) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").ok());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").ok());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").ok());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").ok());
  EXPECT_FALSE(Ipv4Address::parse("").ok());
}

TEST(Ipv4Address, OctetPast64BitsIsInvalidNotWrapped) {
  // 2^64 + 1 once wrapped to 1 and loaded as "10.1.2.1".
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.18446744073709551617").ok());
}

TEST(Ipv4Address, Arithmetic) {
  EXPECT_EQ(Ipv4Address(10, 0, 0, 0) + 2, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address(10, 0, 0, 255) + 1, Ipv4Address(10, 0, 1, 0));
}

TEST(Ipv4Prefix, MaskAndNetmask) {
  const Ipv4Prefix p31{Ipv4Address(137, 164, 0, 2), 31};
  EXPECT_EQ(p31.netmask_string(), "255.255.255.254");
  const Ipv4Prefix p24{Ipv4Address(10, 0, 0, 0), 24};
  EXPECT_EQ(p24.netmask_string(), "255.255.255.0");
  const Ipv4Prefix p32{Ipv4Address(10, 0, 0, 1), 32};
  EXPECT_EQ(p32.netmask_string(), "255.255.255.255");
  const Ipv4Prefix p0{Ipv4Address(10, 0, 0, 1), 0};
  EXPECT_EQ(p0.netmask_string(), "0.0.0.0");
}

TEST(Ipv4Prefix, HostBitsMasked) {
  const Ipv4Prefix p{Ipv4Address(137, 164, 0, 3), 31};
  EXPECT_EQ(p.network(), Ipv4Address(137, 164, 0, 2));
}

TEST(Ipv4Prefix, Contains) {
  const Ipv4Prefix p{Ipv4Address(137, 164, 0, 2), 31};
  EXPECT_TRUE(p.contains(Ipv4Address(137, 164, 0, 2)));
  EXPECT_TRUE(p.contains(Ipv4Address(137, 164, 0, 3)));
  EXPECT_FALSE(p.contains(Ipv4Address(137, 164, 0, 4)));
  EXPECT_FALSE(p.contains(Ipv4Address(137, 164, 0, 1)));
}

TEST(Ipv4Prefix, ParseRoundTrip) {
  const auto p = Ipv4Prefix::parse("137.164.0.2/31");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->to_string(), "137.164.0.2/31");
  EXPECT_FALSE(Ipv4Prefix::parse("137.164.0.2").ok());
  EXPECT_FALSE(Ipv4Prefix::parse("137.164.0.2/33").ok());
  EXPECT_FALSE(Ipv4Prefix::parse("x/24").ok());
}

TEST(Ipv4Prefix, Slash31Of) {
  EXPECT_EQ(Ipv4Prefix::slash31_of(Ipv4Address(10, 0, 0, 5)),
            Ipv4Prefix::slash31_of(Ipv4Address(10, 0, 0, 4)));
  EXPECT_NE(Ipv4Prefix::slash31_of(Ipv4Address(10, 0, 0, 5)),
            Ipv4Prefix::slash31_of(Ipv4Address(10, 0, 0, 6)));
}

// Property: parse(to_string(x)) == x over a sweep of prefix lengths.
class PrefixRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrefixRoundTrip, Holds) {
  const Ipv4Prefix p{Ipv4Address(198, 51, 100, 42), GetParam()};
  const auto parsed = Ipv4Prefix::parse(p.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, p);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PrefixRoundTrip,
                         ::testing::Values(0, 1, 8, 16, 24, 30, 31, 32));

}  // namespace
}  // namespace netfail
