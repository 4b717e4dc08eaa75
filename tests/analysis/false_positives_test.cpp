#include "src/analysis/false_positives.hpp"

#include <gtest/gtest.h>

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }
const LinkId kLink{0};

Failure failure(std::int64_t b, std::int64_t e) {
  Failure f;
  f.link = kLink;
  f.span = TimeRange{at(b), at(e)};
  f.source = Source::kSyslog;
  return f;
}

TEST(FalsePositives, SplitsShortAndLong) {
  const std::vector<Failure> syslog{
      failure(0, 5),       // short FP
      failure(100, 104),   // short FP
      failure(200, 300),   // long FP (100 s)
      failure(400, 401),   // matched -> not an FP
  };
  FailureMatchResult match;
  match.syslog_only = {0, 1, 2};
  const FalsePositiveBreakdown b =
      analyze_false_positives(syslog, match, {});
  EXPECT_EQ(b.total, 3u);
  EXPECT_EQ(b.short_count, 2u);
  EXPECT_EQ(b.long_count, 1u);
  EXPECT_EQ(b.short_downtime, Duration::seconds(9));
  EXPECT_EQ(b.long_downtime, Duration::seconds(100));
  EXPECT_NEAR(b.short_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(b.long_downtime_fraction(), 100.0 / 109.0, 1e-9);
}

TEST(FalsePositives, ThresholdBoundaryIsShort) {
  const std::vector<Failure> syslog{failure(0, 10)};
  FailureMatchResult match;
  match.syslog_only = {0};
  const FalsePositiveBreakdown b =
      analyze_false_positives(syslog, match, {});
  EXPECT_EQ(b.short_count, 1u);  // <= 10 s counts as short, as in the paper
}

TEST(FalsePositives, FlapAttribution) {
  std::map<LinkId, IntervalSet> flaps;
  flaps[kLink].add(TimeRange{at(150), at(400)});
  const std::vector<Failure> syslog{
      failure(200, 300),  // long, inside the flap range
      failure(500, 600),  // long, outside
  };
  FailureMatchResult match;
  match.syslog_only = {0, 1};
  const FalsePositiveBreakdown b =
      analyze_false_positives(syslog, match, flaps);
  EXPECT_EQ(b.long_count, 2u);
  EXPECT_EQ(b.long_in_flap, 1u);
  EXPECT_EQ(b.long_in_flap_downtime, Duration::seconds(100));
}

TEST(FalsePositives, EmptyInput) {
  const FalsePositiveBreakdown b =
      analyze_false_positives({}, FailureMatchResult{}, {});
  EXPECT_EQ(b.total, 0u);
  EXPECT_EQ(b.short_fraction(), 0.0);
  EXPECT_EQ(b.long_downtime_fraction(), 0.0);
}

TEST(FalsePositives, CustomThreshold) {
  // The split sits at kShortFalsePositive (10 s): one second more is long.
  const std::int64_t cut = kShortFalsePositive.total_seconds();
  const std::vector<Failure> syslog{failure(0, cut), failure(100, 101 + cut)};
  FailureMatchResult match;
  match.syslog_only = {0, 1};
  const FalsePositiveBreakdown b = analyze_false_positives(syslog, match, {});
  EXPECT_EQ(b.short_count, 1u);
  EXPECT_EQ(b.short_downtime, kShortFalsePositive);
  EXPECT_EQ(b.long_count, 1u);
}

}  // namespace
}  // namespace netfail::analysis
