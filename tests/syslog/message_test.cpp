#include "src/syslog/message.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/syslog/collector.hpp"

namespace netfail::syslog {
namespace {

/// Parse the way the collector does: by receiving the line.
ReceivedLine received(std::string line) {
  return ReceivedLine(TimePoint{}, std::move(line));
}

Message adj_message(RouterOs dialect) {
  Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, 9, 4, 11, 17, 250);
  m.reporter = dialect == RouterOs::kIos ? "edu042-gw-1" : "lax-core-1";
  m.dialect = dialect;
  m.type = MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface =
      dialect == RouterOs::kIos ? "GigabitEthernet0/1" : "TenGigE0/1/0/3";
  m.neighbor = "svl-core-2";
  m.reason = "interface state down";
  return m;
}

TEST(Render, IosAdjChange) {
  const std::string line = adj_message(RouterOs::kIos).render(42);
  EXPECT_TRUE(line.starts_with("<189>Mar  9 04:11:17 edu042-gw-1 "));
  EXPECT_NE(line.find("%CLNS-5-ADJCHANGE: ISIS: Adjacency to svl-core-2 "
                      "(GigabitEthernet0/1) Down, interface state down"),
            std::string::npos);
}

TEST(Render, IosXrAdjChange) {
  const std::string line = adj_message(RouterOs::kIosXr).render(42);
  EXPECT_NE(line.find("%ROUTING-ISIS-4-ADJCHANGE : Adjacency to svl-core-2 "
                      "(TenGigE0/1/0/3) (L2) Down, interface state down"),
            std::string::npos);
  EXPECT_NE(line.find("isis["), std::string::npos);
}

TEST(Render, LinkAndLineProto) {
  Message m = adj_message(RouterOs::kIos);
  m.type = MessageType::kLinkUpDown;
  m.dir = LinkDirection::kUp;
  EXPECT_NE(m.render(1).find(
                "%LINK-3-UPDOWN: Interface GigabitEthernet0/1, changed state "
                "to up"),
            std::string::npos);
  m.type = MessageType::kLineProtoUpDown;
  EXPECT_NE(m.render(1).find("%LINEPROTO-5-UPDOWN: Line protocol on Interface"),
            std::string::npos);
}

class RoundTrip
    : public ::testing::TestWithParam<std::tuple<RouterOs, MessageType,
                                                 LinkDirection>> {};

TEST_P(RoundTrip, ParsePreservesFields) {
  const auto [dialect, type, dir] = GetParam();
  Message m = adj_message(dialect);
  m.type = type;
  m.dir = dir;
  const std::string line = m.render(1234);

  const ReceivedLine rec = received(line);
  ASSERT_EQ(rec.status(), ParseStatus::kOk) << line;
  const LineParse& parsed = rec.parse();
  EXPECT_EQ(parsed.reporter, m.reporter);
  EXPECT_EQ(parsed.type(), m.type);
  EXPECT_EQ(parsed.dir(), m.dir);
  EXPECT_EQ(parsed.interface, m.interface);
  EXPECT_EQ(parsed.dialect(), m.dialect);
  if (type == MessageType::kIsisAdjChange) {
    EXPECT_EQ(parsed.neighbor, m.neighbor);
    EXPECT_EQ(rec.reason(), m.reason);
  }
  // Timestamp survives with second resolution (RFC 3164 has no millis) and
  // without the year (resolved later by the collector).
  const CivilTime c = to_civil(parsed.timestamp);
  EXPECT_EQ(c.month, 3);
  EXPECT_EQ(c.day, 9);
  EXPECT_EQ(c.hour, 4);
  EXPECT_EQ(c.minute, 11);
  EXPECT_EQ(c.second, 17);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, RoundTrip,
    ::testing::Combine(
        ::testing::Values(RouterOs::kIos, RouterOs::kIosXr),
        ::testing::Values(MessageType::kIsisAdjChange, MessageType::kLinkUpDown,
                          MessageType::kLineProtoUpDown),
        ::testing::Values(LinkDirection::kDown, LinkDirection::kUp)));

TEST(Parse, RejectsGarbage) {
  EXPECT_EQ(received("").status(), ParseStatus::kParseError);
  EXPECT_EQ(received("no priority here").status(), ParseStatus::kParseError);
  EXPECT_EQ(received("<189>not a timestamp").status(),
            ParseStatus::kParseError);
  EXPECT_EQ(received("<189>Xxx  9 04:11:17 host msg").status(),
            ParseStatus::kParseError);
}

TEST(Parse, IrrelevantMnemonicIsNotFound) {
  EXPECT_EQ(received("<189>Mar  9 04:11:17 host 1: %SYS-5-CONFIG_I: "
                     "Configured from console")
                .status(),
            ParseStatus::kNotFound);
}

TEST(Parse, NoMnemonicIsNotFound) {
  EXPECT_EQ(received("<189>Mar  9 04:11:17 host 1: plain text message")
                .status(),
            ParseStatus::kNotFound);
}

TEST(Parse, TruncatedAdjChange) {
  EXPECT_EQ(received("<189>Mar  9 04:11:17 host 1: %CLNS-5-ADJCHANGE: ISIS: "
                     "Adjacency to")
                .status(),
            ParseStatus::kParseError);
}

TEST(Parse, ClassifyHelper) {
  EXPECT_EQ(classify(MessageType::kIsisAdjChange), MessageClass::kIsisAdjacency);
  EXPECT_EQ(classify(MessageType::kLinkUpDown), MessageClass::kPhysicalMedia);
  EXPECT_EQ(classify(MessageType::kLineProtoUpDown),
            MessageClass::kPhysicalMedia);
}

}  // namespace
}  // namespace netfail::syslog
