#include "src/common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace netfail::flags {
namespace {

const std::vector<FlagSpec> kSpecs = {
    {"--dir", true}, {"--policy", true}, {"--small", false}};

TEST(ParseFlags, AcceptsKnownFlags) {
  const Parsed p =
      parse_flags({"--dir", "/tmp/x", "--small", "--policy", "drop"}, kSpecs);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value("--dir"), "/tmp/x");
  EXPECT_EQ(p.value("--policy"), "drop");
  EXPECT_TRUE(p.has("--small"));
  EXPECT_FALSE(p.has("--verbose"));
  EXPECT_EQ(p.value("--verbose"), std::nullopt);
  EXPECT_TRUE(p.positional.empty());
}

TEST(ParseFlags, EqualsSyntax) {
  const Parsed p = parse_flags({"--dir=/tmp/y", "--policy=hold-state"}, kSpecs);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value("--dir"), "/tmp/y");
  EXPECT_EQ(p.value("--policy"), "hold-state");
}

TEST(ParseFlags, RejectsUnknownFlag) {
  const Parsed p = parse_flags({"--dir", "/tmp/x", "--frobnicate"}, kSpecs);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--frobnicate"), std::string::npos);
}

TEST(ParseFlags, RejectsMissingValue) {
  const Parsed p = parse_flags({"--dir"}, kSpecs);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--dir"), std::string::npos);
}

TEST(ParseFlags, RejectsValueOnBooleanFlag) {
  const Parsed p = parse_flags({"--small=yes"}, kSpecs);
  EXPECT_FALSE(p.ok);
}

TEST(ParseFlags, RepeatedFlagKeepsLastValue) {
  const Parsed p = parse_flags({"--policy", "drop", "--policy", "assume-up"},
                               kSpecs);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value("--policy"), "assume-up");
}

TEST(ParseFlags, PositionalAndDoubleDash) {
  const Parsed p =
      parse_flags({"bundle1", "--small", "--", "--not-a-flag"}, kSpecs);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.has("--small"));
  ASSERT_EQ(p.positional.size(), 2u);
  EXPECT_EQ(p.positional[0], "bundle1");
  EXPECT_EQ(p.positional[1], "--not-a-flag");
}

TEST(ParseFlags, ArgvConvenienceSkipsPrefix) {
  const char* argv[] = {"netfail", "analyze", "--dir", "/x"};
  const Parsed p =
      parse_flags(4, const_cast<char**>(argv), 2, kSpecs);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.value("--dir"), "/x");
}

TEST(ParseFlags, EmptyInputIsOk) {
  const Parsed p = parse_flags(std::vector<std::string>{}, kSpecs);
  EXPECT_TRUE(p.ok);
  EXPECT_TRUE(p.present.empty());
}

TEST(ParsePath, AcceptsOrdinaryPaths) {
  for (const char* v : {"/var/lib/netfail", "state", "./x", "a b/c", "x-y"}) {
    const auto r = parse_path("--state-dir", v);
    ASSERT_TRUE(r.ok()) << v << ": " << r.error().to_string();
    EXPECT_EQ(*r, v);
  }
}

TEST(ParsePath, RejectsShellMishaps) {
  // Empty, swallowed-next-flag, and quoting-accident bytes.
  for (const std::string& v :
       {std::string(""), std::string("--http-port"), std::string("-x"),
        std::string("a\nb"), std::string("a\rb"),
        std::string("a") + '\0' + "b"}) {
    const auto r = parse_path("--state-dir", v);
    EXPECT_FALSE(r.ok()) << "accepted: " << v;
  }
  const auto r = parse_path("--state-dir", "--http-port");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("--state-dir"), std::string::npos);
}

TEST(ParseDuration, AcceptsEveryUnit) {
  const struct {
    const char* text;
    std::int64_t ms;
  } cases[] = {
      {"500ms", 500},         {"1ms", 1},
      {"30s", 30'000},        {"5m", 300'000},
      {"2h", 7'200'000},      {"1d", 86'400'000},
      {"090s", 90'000},  // leading zeros are just decimal
  };
  for (const auto& c : cases) {
    const auto r = parse_duration("--snapshot-every", c.text);
    ASSERT_TRUE(r.ok()) << c.text << ": " << r.error().to_string();
    EXPECT_EQ(r->total_millis(), c.ms) << c.text;
  }
}

TEST(ParseDuration, RejectsMissingUnitZeroAndGarbage) {
  for (const char* v :
       {"", "30", "0s", "0ms", "-5s", "5x", "s", "ms", "1.5s", "5 s",
        "5ss", "5mss", "five-s", "99999999999999999999d", "0x10s"}) {
    const auto r = parse_duration("--snapshot-every", v);
    EXPECT_FALSE(r.ok()) << "accepted: " << v;
  }
  // The error teaches the grammar.
  const auto r = parse_duration("--snapshot-every", "30");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("500ms"), std::string::npos);
  EXPECT_NE(r.error().message.find("--snapshot-every"), std::string::npos);
}

TEST(ParseDuration, BoundsTheCountPerUnitSoMillisecondsFit) {
  // 2^40 of the unit fits for ms/s/m/h; for days the int64 millisecond
  // total is the tighter bound (INT64_MAX / 86'400'000 = 106751991167).
  for (const char* v : {"1099511627776ms", "1099511627776s", "1099511627776m",
                        "1099511627776h", "106751991167d"}) {
    const auto r = parse_duration("--snapshot-every", v);
    ASSERT_TRUE(r.ok()) << v << ": " << r.error().to_string();
    EXPECT_GT(r->total_millis(), 0) << v;
  }
  EXPECT_EQ(parse_duration("--snapshot-every", "106751991167d")->total_millis(),
            std::int64_t{106751991167} * 86'400'000);
  for (const char* v : {"1099511627776d", "106751991168d", "1099511627777ms",
                        "1099511627777h"}) {
    EXPECT_FALSE(parse_duration("--snapshot-every", v).ok()) << v;
  }
}

}  // namespace
}  // namespace netfail::flags
