#include "src/syslog/collector.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "src/common/rng.hpp"
#include "src/common/strfmt.hpp"

namespace netfail::syslog {
namespace {

TEST(Collector, StoresLines) {
  Collector c;
  c.receive({TimePoint::from_unix_seconds(1), "line one"});
  c.receive({TimePoint::from_unix_seconds(2), "line two"});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.lines()[0].line(), "line one");
  EXPECT_EQ(c.lines()[1].received_at, TimePoint::from_unix_seconds(2));
}

TEST(Collector, EqualTimestampsAreInOrder) {
  // "Nondecreasing", not "increasing": a busy second is legal.
  Collector c;
  c.receive({TimePoint::from_unix_seconds(5), "a"});
  c.receive({TimePoint::from_unix_seconds(5), "b"});
  EXPECT_EQ(c.size(), 2u);
}

TEST(CollectorDeathTest, RejectsOutOfOrderLines) {
  // The whole year-resolution scheme (and the streaming mux) relies on the
  // collector's arrival order being monotone; regressions must trap, not
  // silently corrupt downstream extraction.
  Collector c;
  c.receive({TimePoint::from_unix_seconds(10), "first"});
  EXPECT_DEATH(c.receive({TimePoint::from_unix_seconds(9), "time traveler"}),
               "time order");
}

TEST(ArrivalCursor, StampsTrackedLinesAndClampsMonotonic) {
  ArrivalCursor cursor(TimePoint::from_civil(2011, 3, 1));
  const TimePoint mar9 = TimePoint::from_civil(2011, 3, 9, 4, 11, 17);
  const ReceivedLine a = cursor.stamp(
      "<189>Mar  9 04:11:17 h 1: %LINK-3-UPDOWN: Interface Gi0, changed "
      "state to up");
  EXPECT_EQ(a.status(), ParseStatus::kOk);
  EXPECT_EQ(a.received_at, mar9);
  // Valid syslog of an untracked type takes the cursor, not its own
  // (later) timestamp, exactly like a garbled line.
  const ReceivedLine b =
      cursor.stamp("<189>Mar 20 00:00:00 h 1: %SYS-5-CONFIG_I: console");
  EXPECT_EQ(b.status(), ParseStatus::kNotFound);
  EXPECT_EQ(b.received_at, mar9);
  const ReceivedLine c = cursor.stamp("garbage");
  EXPECT_EQ(c.status(), ParseStatus::kParseError);
  EXPECT_EQ(c.received_at, mar9);
  // A tracked line stamped before the cursor is clamped up to it.
  const ReceivedLine d = cursor.stamp(
      "<189>Mar  2 00:00:00 h 1: %LINK-3-UPDOWN: Interface Gi0, changed "
      "state to down");
  EXPECT_EQ(d.received_at, mar9);
  EXPECT_EQ(cursor.cursor(), mar9);
}

TEST(ArrivalCursor, StampsAsResolveYearDoes) {
  // The cursor keeps resolve_year's per-day work between lines; its stamps
  // must equal a loop that calls resolve_year on every line. Captures start
  // in leap, non-leap and century years, and walk through New Year, with
  // timestamps that jump back and forth across days, months and the year
  // boundary.
  static const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr",
                                        "May", "Jun", "Jul", "Aug",
                                        "Sep", "Oct", "Nov", "Dec"};
  Rng rng(41);
  for (const int start_year : {1999, 2000, 2011, 2012, 2099, 2100}) {
    SCOPED_TRACE(start_year);
    const TimePoint start = TimePoint::from_civil(start_year, 12, 20);
    ArrivalCursor cursor(start);
    TimePoint want = start;
    // Mostly Dec/Jan around the cursor, sometimes any month.
    int month = 12, day = 20;
    for (int i = 0; i < 4000; ++i) {
      if (rng.uniform_int(0, 9) == 0) {
        month = static_cast<int>(rng.uniform_int(1, 12));
        day = static_cast<int>(rng.uniform_int(1, 31));
      } else if (rng.uniform_int(0, 3) == 0) {
        month = month == 12 ? 1 : 12;
        day = static_cast<int>(rng.uniform_int(1, 31));
      }
      const std::string line = strformat(
          "<189>%s %2d %02d:%02d:%02d h 1: %%LINK-3-UPDOWN: Interface Gi0, "
          "changed state to up",
          kMonths[month - 1], day, static_cast<int>(rng.uniform_int(0, 23)),
          static_cast<int>(rng.uniform_int(0, 59)),
          static_cast<int>(rng.uniform_int(0, 59)));
      const ReceivedLine got = cursor.stamp(std::string(line));
      ASSERT_EQ(got.status(), ParseStatus::kOk) << line;
      want = std::max(want, resolve_year(got.parse().timestamp, want));
      ASSERT_EQ(got.received_at, want) << "line " << i << ": " << line;
    }
  }
}

TEST(YearResolver, EqualsResolveYear) {
  // One resolver, kept across every call as extraction keeps it, against
  // resolve_year called afresh. References sit within three days of a year
  // end or of Mar 1, in leap, non-leap and century years, and jump back
  // and forth between those years; parsed days are the last and first days
  // of a year and Feb 28/29/Mar 1, in a leap and a non-leap base year, and
  // repeat for several calls so the memo is reused.
  static constexpr int kYears[] = {1999, 2000, 2011, 2012, 2099, 2100, 2104};
  static constexpr struct {
    int month, day;
  } kDays[] = {{12, 30}, {12, 31}, {1, 1}, {1, 2}, {2, 28}, {2, 29}, {3, 1}};
  constexpr std::int64_t kDayMs = 86'400'000;
  Rng rng(0x7EA5);
  YearResolver years;
  int ref_year = 2011;
  int base_year = 2012;
  int day = 5;  // index into kDays
  for (int i = 0; i < 50'000; ++i) {
    if (rng.uniform_int(0, 39) == 0) {
      ref_year = kYears[rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kYears)) - 1)];
    }
    if (rng.uniform_int(0, 3) == 0) {
      day = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::size(kDays)) - 1));
      base_year = rng.uniform_int(0, 1) == 0 ? 2011 : 2012;
    }
    // from_civil has no Feb 29 in a non-leap base year.
    const auto [month, dom] = base_year == 2011 && kDays[day].day == 29
                                  ? kDays[day - 1]
                                  : kDays[day];
    const TimePoint parsed =
        TimePoint::from_civil(base_year, month, dom) +
        Duration::millis(rng.uniform_int(0, kDayMs - 1));
    const TimePoint anchor = rng.uniform_int(0, 1) == 0
                                 ? TimePoint::from_civil(ref_year + 1, 1, 1)
                                 : TimePoint::from_civil(ref_year, 3, 1);
    const TimePoint reference =
        anchor + Duration::millis(rng.uniform_int(-3 * kDayMs, 3 * kDayMs));
    ASSERT_EQ(years.resolve(parsed, reference), resolve_year(parsed, reference))
        << "call " << i << ": parsed " << parsed.to_string() << ", reference "
        << reference.to_string();
  }
}

TEST(ResolveYear, SameYear) {
  // Message says "Mar 9", collector received it in March 2011.
  const TimePoint parsed = TimePoint::from_civil(2011, 3, 9, 4, 0, 0);
  const TimePoint received = TimePoint::from_civil(2011, 3, 9, 4, 0, 1);
  EXPECT_EQ(resolve_year(parsed, received), parsed);
}

TEST(ResolveYear, CrossYearBoundary) {
  // Message says "Dec 31 23:59", received Jan 1 2011: year must be 2010.
  const TimePoint parsed = TimePoint::from_civil(2011, 12, 31, 23, 59, 0);
  const TimePoint received = TimePoint::from_civil(2011, 1, 1, 0, 0, 30);
  EXPECT_EQ(resolve_year(parsed, received),
            TimePoint::from_civil(2010, 12, 31, 23, 59, 0));
}

TEST(ResolveYear, ForwardBoundary) {
  // Message says "Jan 1 00:00" parsed into the wrong year (2010), received
  // Dec 31 2010: resolves forward to 2011.
  const TimePoint parsed = TimePoint::from_civil(2010, 1, 1, 0, 0, 10);
  const TimePoint received = TimePoint::from_civil(2010, 12, 31, 23, 59, 50);
  EXPECT_EQ(resolve_year(parsed, received),
            TimePoint::from_civil(2011, 1, 1, 0, 0, 10));
}

TEST(ResolveYear, StudyPeriodDates) {
  // Nov 5 received in Nov 2011 must stay 2011 even though the naive parse
  // guessed 2010 (both Oct/Nov exist in the study period).
  const TimePoint parsed = TimePoint::from_civil(2010, 11, 5, 12, 0, 0);
  const TimePoint received = TimePoint::from_civil(2011, 11, 5, 12, 0, 2);
  EXPECT_EQ(resolve_year(parsed, received),
            TimePoint::from_civil(2011, 11, 5, 12, 0, 0));
}

TEST(ResolveYear, Feb29SkipsNonLeapCandidates) {
  const TimePoint parsed = TimePoint::from_civil(2012, 2, 29, 10, 0, 0);
  const TimePoint received = TimePoint::from_civil(2012, 2, 29, 10, 0, 5);
  EXPECT_EQ(resolve_year(parsed, received), parsed);
}

}  // namespace
}  // namespace netfail::syslog
