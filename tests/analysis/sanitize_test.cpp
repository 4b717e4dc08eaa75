#include "src/analysis/sanitize.hpp"

#include <gtest/gtest.h>

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t h) {
  return TimePoint::from_civil(2011, 1, 1) + Duration::hours(h);
}

Failure failure(std::int64_t bh, std::int64_t eh, LinkId link = LinkId{0}) {
  Failure f;
  f.link = link;
  f.span = TimeRange{at(bh), at(eh)};
  f.source = Source::kSyslog;
  return f;
}

LinkCensus one_link_census() {
  LinkCensus census;
  census.add_link(
      CensusEndpoint{"a", "1", Ipv4Address(10, 0, 0, 0)},
      CensusEndpoint{"b", "1", Ipv4Address(10, 0, 0, 1)},
      Ipv4Prefix{Ipv4Address(10, 0, 0, 0), 31},
      TimeRange{at(0), at(10'000)}, RouterClass::kCore);
  census.finalize();
  return census;
}

TEST(RemoveListenerGaps, RemovesOverlapping) {
  std::vector<Failure> fs{failure(0, 1), failure(10, 12), failure(20, 21)};
  IntervalSet gaps;
  gaps.add(TimeRange{at(11), at(15)});
  const SanitizationReport rep = remove_listener_gap_failures(fs, gaps);
  EXPECT_EQ(rep.removed_listener_gap, 1u);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].span.begin, at(0));
  EXPECT_EQ(fs[1].span.begin, at(20));
}

TEST(RemoveListenerGaps, NoGapsNoChange) {
  std::vector<Failure> fs{failure(0, 1)};
  const SanitizationReport rep = remove_listener_gap_failures(fs, {});
  EXPECT_EQ(rep.removed_listener_gap, 0u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(VerifyLongFailures, ShortFailuresUntouched) {
  const LinkCensus census = one_link_census();
  TicketStore tickets;
  std::vector<Failure> fs{failure(0, 23)};  // 23 h < threshold
  const SanitizationReport rep = verify_long_failures(fs, census, tickets);
  EXPECT_EQ(rep.long_failures_checked, 0u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(VerifyLongFailures, UncorroboratedLongFailureRemoved) {
  const LinkCensus census = one_link_census();
  TicketStore tickets;  // empty: nothing corroborates
  std::vector<Failure> fs{failure(0, 300)};  // 300 h, no ticket
  const SanitizationReport rep = verify_long_failures(fs, census, tickets);
  EXPECT_EQ(rep.long_failures_checked, 1u);
  EXPECT_EQ(rep.long_failures_removed, 1u);
  EXPECT_EQ(rep.spurious_hours_removed, Duration::hours(300));
  EXPECT_TRUE(fs.empty());
}

TEST(VerifyLongFailures, TicketedLongFailureKept) {
  const LinkCensus census = one_link_census();
  TicketStore tickets;
  tickets.file(census.links()[0].name, TimeRange{at(0), at(300)},
               "scheduled outage");
  std::vector<Failure> fs{failure(0, 290)};
  const SanitizationReport rep = verify_long_failures(fs, census, tickets);
  EXPECT_EQ(rep.long_failures_confirmed, 1u);
  EXPECT_EQ(rep.long_failures_removed, 0u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(VerifyLongFailures, TicketOnOtherLinkDoesNotCount) {
  const LinkCensus census = one_link_census();
  TicketStore tickets;
  tickets.file("some-other-link", TimeRange{at(0), at(300)}, "unrelated");
  std::vector<Failure> fs{failure(0, 290)};
  const SanitizationReport rep = verify_long_failures(fs, census, tickets);
  EXPECT_EQ(rep.long_failures_removed, 1u);
}

TEST(VerifyLongFailures, CustomThreshold) {
  // The threshold is kLongFailure (24 h), inclusive: a failure of exactly
  // 24 h is checked, one of 25 h too, and one just under is not.
  const LinkCensus census = one_link_census();
  TicketStore tickets;
  static_assert(kLongFailure == Duration::hours(24));
  Failure just_under = failure(100, 124);
  just_under.span.end = just_under.span.end - Duration::millis(1);
  std::vector<Failure> fs{failure(0, 24), failure(30, 55), just_under};
  const SanitizationReport rep = verify_long_failures(fs, census, tickets);
  EXPECT_EQ(rep.long_failures_checked, 2u);
  EXPECT_EQ(rep.long_failures_removed, 2u);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].span.begin, at(100));
}

}  // namespace
}  // namespace netfail::analysis
