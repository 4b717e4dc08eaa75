#include "src/syslog/extract.hpp"

#include <gtest/gtest.h>

namespace netfail::syslog {
namespace {

class SyslogExtractTest : public ::testing::Test {
 protected:
  SyslogExtractTest() {
    const TimeRange period{TimePoint::from_civil(2010, 10, 20),
                           TimePoint::from_civil(2011, 11, 11)};
    link_ = census_.add_link(
        CensusEndpoint{"edu042-gw-1", "GigabitEthernet0/1",
                       Ipv4Address(10, 0, 0, 1)},
        CensusEndpoint{"lax-core-1", "TenGigE0/1/0/3", Ipv4Address(10, 0, 0, 0)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 0), 31}, period, RouterClass::kCpe);
    census_.finalize();
  }

  void deliver(const Message& m, TimePoint received) {
    collector_.receive({received, m.render(seq_++)});
  }

  Message base_message() {
    Message m;
    m.timestamp = TimePoint::from_civil(2011, 3, 9, 4, 11, 17);
    m.reporter = "edu042-gw-1";
    m.dialect = RouterOs::kIos;
    m.type = MessageType::kIsisAdjChange;
    m.dir = LinkDirection::kDown;
    m.interface = "GigabitEthernet0/1";
    m.neighbor = "lax-core-1";
    m.reason = "interface state down";
    return m;
  }

  LinkCensus census_;
  LinkId link_;
  Collector collector_;
  unsigned seq_ = 1;
};

TEST_F(SyslogExtractTest, ResolvesLinkAndFields) {
  const Message m = base_message();
  deliver(m, m.timestamp + Duration::millis(40));
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  ASSERT_EQ(ex.transitions.size(), 1u);
  const SyslogTransition& tr = ex.transitions[0];
  EXPECT_EQ(tr.link, link_);
  EXPECT_EQ(tr.dir, LinkDirection::kDown);
  EXPECT_EQ(tr.cls, MessageClass::kIsisAdjacency);
  EXPECT_EQ(tr.reporter, "edu042-gw-1");
  EXPECT_EQ(tr.reason, "interface state down");
  EXPECT_EQ(tr.time, m.timestamp);  // year resolved from arrival
}

TEST_F(SyslogExtractTest, BothEndsResolveToSameLink) {
  Message core = base_message();
  core.reporter = "lax-core-1";
  core.dialect = RouterOs::kIosXr;
  core.interface = "TenGigE0/1/0/3";
  core.neighbor = "edu042-gw-1";
  deliver(base_message(), base_message().timestamp + Duration::millis(10));
  deliver(core, core.timestamp + Duration::millis(50));
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  ASSERT_EQ(ex.transitions.size(), 2u);
  EXPECT_EQ(ex.transitions[0].link, ex.transitions[1].link);
  EXPECT_NE(ex.transitions[0].reporter, ex.transitions[1].reporter);
}

TEST_F(SyslogExtractTest, PhysicalMediaClassified) {
  Message m = base_message();
  m.type = MessageType::kLinkUpDown;
  deliver(m, m.timestamp);
  Message m2 = base_message();
  m2.type = MessageType::kLineProtoUpDown;
  deliver(m2, m2.timestamp + Duration::seconds(1));
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  ASSERT_EQ(ex.transitions.size(), 2u);
  EXPECT_EQ(ex.transitions[0].cls, MessageClass::kPhysicalMedia);
  EXPECT_EQ(ex.transitions[1].cls, MessageClass::kPhysicalMedia);
}

TEST_F(SyslogExtractTest, UnknownInterfaceCounted) {
  Message m = base_message();
  m.interface = "GigabitEthernet9/9";
  deliver(m, m.timestamp);
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  EXPECT_TRUE(ex.transitions.empty());
  EXPECT_EQ(ex.stats.unresolved_links, 1u);
}

TEST_F(SyslogExtractTest, GarbageLinesCounted) {
  collector_.receive({TimePoint::from_civil(2011, 1, 1), "complete garbage"});
  collector_.receive({TimePoint::from_civil(2011, 1, 2),
                     "<189>Jan  2 00:00:00 host 1: %SYS-5-RELOAD: reload"});
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  EXPECT_TRUE(ex.transitions.empty());
  EXPECT_EQ(ex.stats.parse_failures, 1u);
  EXPECT_EQ(ex.stats.irrelevant_lines, 1u);
  EXPECT_EQ(ex.stats.lines_seen, 2u);
}

TEST_F(SyslogExtractTest, YearResolutionAcrossNewYear) {
  Message m = base_message();
  m.timestamp = TimePoint::from_civil(2010, 12, 31, 23, 59, 58);
  // Arrival just after midnight on Jan 1 2011.
  deliver(m, TimePoint::from_civil(2011, 1, 1, 0, 0, 2));
  const SyslogExtraction ex = extract_transitions(collector_, census_);
  ASSERT_EQ(ex.transitions.size(), 1u);
  EXPECT_EQ(to_civil(ex.transitions[0].time).year, 2010);
}

}  // namespace
}  // namespace netfail::syslog
