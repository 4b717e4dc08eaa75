#include "src/analysis/linkstats.hpp"

#include <gtest/gtest.h>

namespace netfail::analysis {
namespace {

// One year period for easy annualization arithmetic.
const TimePoint kStart = TimePoint::from_civil(2011, 1, 1);
const TimeRange kYear{kStart, kStart + Duration::hours(8766)};  // 365.25 d

class LinkStatsTest : public ::testing::Test {
 protected:
  LinkStatsTest() {
    core_ = census_.add_link(
        CensusEndpoint{"a-core", "1", Ipv4Address(10, 0, 0, 0)},
        CensusEndpoint{"b-core", "1", Ipv4Address(10, 0, 0, 1)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 0), 31}, kYear, RouterClass::kCore);
    cpe_ = census_.add_link(
        CensusEndpoint{"b-core", "2", Ipv4Address(10, 0, 0, 2)},
        CensusEndpoint{"edu1-gw", "1", Ipv4Address(10, 0, 0, 3)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 2), 31}, kYear, RouterClass::kCpe);
    // A multi-link CPE pair that must be excluded.
    ml1_ = census_.add_link(
        CensusEndpoint{"b-core", "3", Ipv4Address(10, 0, 0, 4)},
        CensusEndpoint{"edu2-gw", "1", Ipv4Address(10, 0, 0, 5)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 4), 31}, kYear, RouterClass::kCpe);
    ml2_ = census_.add_link(
        CensusEndpoint{"b-core", "4", Ipv4Address(10, 0, 0, 6)},
        CensusEndpoint{"edu2-gw", "2", Ipv4Address(10, 0, 0, 7)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 6), 31}, kYear, RouterClass::kCpe);
    census_.finalize();
  }

  Failure make_failure(LinkId link, std::int64_t start_h, std::int64_t dur_s) {
    Failure f;
    f.link = link;
    f.span = TimeRange{kStart + Duration::hours(start_h),
                       kStart + Duration::hours(start_h) + Duration::seconds(dur_s)};
    return f;
  }

  LinkCensus census_;
  LinkId core_, cpe_, ml1_, ml2_;
};

TEST_F(LinkStatsTest, AnnualizedFailureCount) {
  std::vector<Failure> fs;
  for (int i = 0; i < 10; ++i) fs.push_back(make_failure(core_, i * 100, 60));
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  ASSERT_EQ(s.core.failures_per_year.size(), 1u);
  EXPECT_NEAR(s.core.failures_per_year[0], 10.0, 0.01);
}

TEST_F(LinkStatsTest, DurationsPerFailure) {
  std::vector<Failure> fs{make_failure(cpe_, 0, 10), make_failure(cpe_, 10, 30),
                          make_failure(cpe_, 20, 50)};
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  ASSERT_EQ(s.cpe.duration_s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.cpe_summary.duration_s.median, 30.0);
}

TEST_F(LinkStatsTest, TimeBetweenFailures) {
  std::vector<Failure> fs{make_failure(cpe_, 0, 3600),
                          make_failure(cpe_, 10, 3600),
                          make_failure(cpe_, 30, 3600)};
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  ASSERT_EQ(s.cpe.tbf_hours.size(), 2u);
  // Gaps are end-to-start: (10h - 1h) = 9h and (30h - 11h) = 19h.
  EXPECT_NEAR(s.cpe.tbf_hours[0], 9.0, 0.01);
  EXPECT_NEAR(s.cpe.tbf_hours[1], 19.0, 0.01);
}

TEST_F(LinkStatsTest, AnnualizedDowntime) {
  std::vector<Failure> fs{make_failure(core_, 0, 7200)};  // 2 hours
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  ASSERT_EQ(s.core.downtime_hours_per_year.size(), 1u);
  EXPECT_NEAR(s.core.downtime_hours_per_year[0], 2.0, 0.01);
}

TEST_F(LinkStatsTest, MultilinkExcluded) {
  std::vector<Failure> fs{make_failure(ml1_, 0, 60),
                          make_failure(cpe_, 0, 60)};
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  // Only the single-link CPE contributes failures; ml1/ml2 excluded entirely.
  EXPECT_EQ(s.cpe.duration_s.size(), 1u);
  EXPECT_EQ(s.cpe.failures_per_year.size(), 1u);
}

TEST_F(LinkStatsTest, ZeroFailureLinksIncluded) {
  const LinkStatistics s = compute_link_statistics({}, census_, kYear);
  ASSERT_EQ(s.core.failures_per_year.size(), 1u);
  EXPECT_EQ(s.core.failures_per_year[0], 0.0);
  EXPECT_EQ(s.core.downtime_hours_per_year[0], 0.0);
  EXPECT_TRUE(s.core.duration_s.empty());
}

TEST_F(LinkStatsTest, ClassSplit) {
  std::vector<Failure> fs{make_failure(core_, 0, 60),
                          make_failure(cpe_, 0, 120)};
  const LinkStatistics s = compute_link_statistics(fs, census_, kYear);
  ASSERT_EQ(s.core.duration_s.size(), 1u);
  ASSERT_EQ(s.cpe.duration_s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.core.duration_s[0], 60.0);
  EXPECT_DOUBLE_EQ(s.cpe.duration_s[0], 120.0);
}

TEST_F(LinkStatsTest, HalfLifetimeDoublesAnnualizedRate) {
  // A link only alive for half the period gets its failures scaled 2x.
  LinkCensus census;
  const TimeRange half{kStart, kStart + Duration::hours(4383)};
  const LinkId link = census.add_link(
      CensusEndpoint{"x-core", "1", Ipv4Address(10, 1, 0, 0)},
      CensusEndpoint{"y-core", "1", Ipv4Address(10, 1, 0, 1)},
      Ipv4Prefix{Ipv4Address(10, 1, 0, 0), 31}, half, RouterClass::kCore);
  census.finalize();
  std::vector<Failure> fs;
  Failure f;
  f.link = link;
  f.span = TimeRange{kStart + Duration::hours(1),
                     kStart + Duration::hours(1) + Duration::seconds(60)};
  fs.push_back(f);
  const LinkStatistics s = compute_link_statistics(fs, census, kYear);
  ASSERT_EQ(s.core.failures_per_year.size(), 1u);
  EXPECT_NEAR(s.core.failures_per_year[0], 2.0, 0.01);
}

}  // namespace
}  // namespace netfail::analysis
