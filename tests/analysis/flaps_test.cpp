#include "src/analysis/flaps.hpp"

#include <gtest/gtest.h>

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

Failure failure(std::int64_t b, std::int64_t e, LinkId link = LinkId{0}) {
  Failure f;
  f.link = link;
  f.span = TimeRange{at(b), at(e)};
  return f;
}

TEST(Flaps, DetectsEpisode) {
  // Three failures separated by < 10 min.
  std::vector<Failure> fs{failure(0, 10), failure(100, 110), failure(400, 420)};
  const FlapAnalysis a = detect_flaps(fs);
  ASSERT_EQ(a.episodes.size(), 1u);
  EXPECT_EQ(a.episodes[0].failure_count, 3u);
  EXPECT_EQ(a.episodes[0].span, (TimeRange{at(0), at(420)}));
  EXPECT_EQ(a.failures_in_episodes, 3u);
  for (const Failure& f : fs) EXPECT_TRUE(f.in_flap_episode);
}

TEST(Flaps, IsolatedFailuresNotFlap) {
  std::vector<Failure> fs{failure(0, 10), failure(10'000, 10'010)};
  const FlapAnalysis a = detect_flaps(fs);
  EXPECT_TRUE(a.episodes.empty());
  EXPECT_EQ(a.failures_in_episodes, 0u);
  for (const Failure& f : fs) EXPECT_FALSE(f.in_flap_episode);
}

TEST(Flaps, GapMeasuredEndToStart) {
  // End of first failure to start of next: 599 s < 600 s -> episode.
  std::vector<Failure> fs{failure(0, 1000), failure(1599, 1650)};
  EXPECT_EQ(detect_flaps(fs).episodes.size(), 1u);
  // 601 s -> no episode.
  std::vector<Failure> fs2{failure(0, 1000), failure(1601, 1650)};
  EXPECT_TRUE(detect_flaps(fs2).episodes.empty());
}

TEST(Flaps, RunsSplitAtLargeGaps) {
  std::vector<Failure> fs{failure(0, 10),    failure(50, 60),
                          failure(10'000, 10'010), failure(10'050, 10'060),
                          failure(10'100, 10'110)};
  const FlapAnalysis a = detect_flaps(fs);
  ASSERT_EQ(a.episodes.size(), 2u);
  EXPECT_EQ(a.episodes[0].failure_count, 2u);
  EXPECT_EQ(a.episodes[1].failure_count, 3u);
}

TEST(Flaps, PerLinkSeparation) {
  std::vector<Failure> fs{failure(0, 10, LinkId{0}), failure(20, 30, LinkId{1}),
                          failure(40, 50, LinkId{0})};
  const FlapAnalysis a = detect_flaps(fs);
  // Link 0 has two close failures (episode); link 1 alone has none.
  ASSERT_EQ(a.episodes.size(), 1u);
  EXPECT_EQ(a.episodes[0].link, LinkId{0});
  EXPECT_FALSE(fs[1].in_flap_episode);
}

TEST(Flaps, FlapRangesUsable) {
  std::vector<Failure> fs{failure(100, 110), failure(200, 210)};
  const FlapAnalysis a = detect_flaps(fs);
  const auto it = a.flap_ranges.find(LinkId{0});
  ASSERT_NE(it, a.flap_ranges.end());
  EXPECT_TRUE(it->second.contains(at(150)));
  EXPECT_FALSE(it->second.contains(at(300)));
}

TEST(Flaps, CustomOptions) {
  // The rule's two constants at their edges: kFlapMinFailures (2) failures
  // kFlapMaxGap (10 min) apart flap; one more second apart, or one failure
  // alone, does not.
  static_assert(kFlapMinFailures == 2);
  const std::int64_t gap = kFlapMaxGap.total_seconds();
  std::vector<Failure> fs{failure(0, 5), failure(5 + gap, 10 + gap)};
  const FlapAnalysis a = detect_flaps(fs);
  ASSERT_EQ(a.episodes.size(), 1u);
  EXPECT_EQ(a.episodes[0].failure_count, 2u);
  std::vector<Failure> fs2{failure(0, 5), failure(6 + gap, 10 + gap)};
  EXPECT_TRUE(detect_flaps(fs2).episodes.empty());
  std::vector<Failure> one{failure(0, 5)};
  EXPECT_TRUE(detect_flaps(one).episodes.empty());
}

TEST(Flaps, UnsortedInputHandled) {
  std::vector<Failure> fs{failure(100, 110), failure(0, 10), failure(50, 60)};
  const FlapAnalysis a = detect_flaps(fs);
  ASSERT_EQ(a.episodes.size(), 1u);
  EXPECT_EQ(a.episodes[0].failure_count, 3u);
}

}  // namespace
}  // namespace netfail::analysis
