#include "src/analysis/reconstruct.hpp"

#include <gtest/gtest.h>

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }
const LinkId kLink{0};
const LinkId kOther{1};

ReconstructOptions options(AmbiguityPolicy policy = AmbiguityPolicy::kHoldState) {
  ReconstructOptions o;
  o.policy = policy;
  o.period = TimeRange{at(0), at(1'000'000)};
  return o;
}

RawTransition down(std::int64_t s, LinkId link = kLink) {
  return RawTransition{link, at(s), LinkDirection::kDown};
}
RawTransition up(std::int64_t s, LinkId link = kLink) {
  return RawTransition{link, at(s), LinkDirection::kUp};
}

TEST(Reconstruct, SimpleFailure) {
  const Reconstruction r = reconstruct({down(100), up(160)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(100), at(160)}));
  EXPECT_EQ(r.failures[0].link, kLink);
  EXPECT_EQ(r.double_downs, 0u);
}

TEST(Reconstruct, BothEndReportsMerged) {
  // Down from A at 100, from B at 101 (within the 3 s merge window); ups at
  // 160/161. One failure, two merged duplicates.
  const Reconstruction r =
      reconstruct({down(100), down(101), up(160), up(161)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(100), at(160)}));
  EXPECT_EQ(r.merged_duplicates, 2u);
  EXPECT_EQ(r.double_downs, 0u);
}

TEST(Reconstruct, OneSecondFailureNotSwallowedByMerge) {
  // A 1-second failure: the up at 101 must not merge into the down at 100.
  const Reconstruction r = reconstruct({down(100), up(101)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].duration(), Duration::seconds(1));
}

TEST(Reconstruct, MultipleLinksIndependent) {
  const Reconstruction r = reconstruct(
      {down(100), down(110, kOther), up(160), up(170, kOther)}, options());
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(r.failures[0].link, kLink);
  EXPECT_EQ(r.failures[1].link, kOther);
}

TEST(Reconstruct, UnterminatedFailureDropped) {
  const Reconstruction r = reconstruct({down(100)}, options());
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(r.unterminated, 1u);
}

TEST(Reconstruct, DoubleDownHoldState) {
  // down(100) ... down(200, spurious) ... up(300): hold-state keeps one
  // failure spanning the whole episode.
  const Reconstruction r =
      reconstruct({down(100), down(200), up(300)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(100), at(300)}));
  EXPECT_EQ(r.double_downs, 1u);
  ASSERT_EQ(r.ambiguous.size(), 1u);
  EXPECT_EQ(r.ambiguous[0].repeated_dir, LinkDirection::kDown);
  EXPECT_EQ(r.ambiguous[0].first_message, at(100));
  EXPECT_EQ(r.ambiguous[0].second_message, at(200));
}

TEST(Reconstruct, DoubleDownAssumeUp) {
  // Assume-up: the first failure's end is unknown; restart at the second.
  const Reconstruction r = reconstruct({down(100), down(200), up(300)},
                                       options(AmbiguityPolicy::kAssumeUp));
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(200), at(300)}));
}

TEST(Reconstruct, DoubleDownDrop) {
  // Prior-work behaviour: the tainted episode disappears entirely.
  const Reconstruction r = reconstruct({down(100), down(200), up(300)},
                                       options(AmbiguityPolicy::kDrop));
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(r.double_downs, 1u);
}

TEST(Reconstruct, DoubleUpHoldState) {
  // A failure, then a spurious extra up: hold-state ignores it.
  const Reconstruction r =
      reconstruct({down(100), up(200), up(400)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(100), at(200)}));
  EXPECT_EQ(r.double_ups, 1u);
}

TEST(Reconstruct, DoubleUpAssumeDown) {
  // Assume-down: the ambiguous period [200, 400] becomes downtime.
  const Reconstruction r = reconstruct({down(100), up(200), up(400)},
                                       options(AmbiguityPolicy::kAssumeDown));
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(r.failures[1].span, (TimeRange{at(200), at(400)}));
}

TEST(Reconstruct, DoubleUpDrop) {
  // Drop removes the failure the first up closed.
  const Reconstruction r = reconstruct({down(100), up(200), up(400)},
                                       options(AmbiguityPolicy::kDrop));
  EXPECT_TRUE(r.failures.empty());
}

TEST(Reconstruct, InitialUpIsAmbiguous) {
  // The link starts in the assumed-up state; a bare up is a double-up.
  const Reconstruction r = reconstruct({up(100)}, options());
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(r.double_ups, 1u);
}

TEST(Reconstruct, LostUpMakesLongFailure) {
  // Two real failures; the intervening ups were lost. Hold-state merges
  // them into one long failure — the false-positive mechanism of sect. 4.2.
  const Reconstruction r =
      reconstruct({down(100), down(100'000), up(100'060)}, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].span, (TimeRange{at(100), at(100'060)}));
}

TEST(Reconstruct, SpuriousMidFailureRetransmissionHarmless) {
  // down, spurious down reminder, up: same result as without the reminder
  // under hold-state.
  const Reconstruction with_spurious =
      reconstruct({down(100), down(150), up(200)}, options());
  const Reconstruction without = reconstruct({down(100), up(200)}, options());
  ASSERT_EQ(with_spurious.failures.size(), without.failures.size());
  EXPECT_EQ(with_spurious.failures[0].span, without.failures[0].span);
}

TEST(ReconstructFromSyslog, FiltersNonAdjacencyMessages) {
  std::vector<syslog::SyslogTransition> transitions;
  syslog::SyslogTransition tr;
  tr.link = kLink;
  tr.time = at(100);
  tr.dir = LinkDirection::kDown;
  tr.cls = syslog::MessageClass::kPhysicalMedia;  // must be ignored
  transitions.push_back(tr);
  tr.cls = syslog::MessageClass::kIsisAdjacency;
  transitions.push_back(tr);
  tr.dir = LinkDirection::kUp;
  tr.time = at(200);
  transitions.push_back(tr);
  const Reconstruction r = reconstruct_from_syslog(transitions, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].source, Source::kSyslog);
}

TEST(ReconstructFromIsis, SkipsMultilinkAndUnresolved) {
  std::vector<isis::IsisTransition> transitions;
  isis::IsisTransition tr;
  tr.time = at(100);
  tr.dir = LinkDirection::kDown;
  tr.multilink = true;  // skipped
  transitions.push_back(tr);
  tr.multilink = false;
  tr.link = kLink;
  transitions.push_back(tr);
  tr.dir = LinkDirection::kUp;
  tr.time = at(150);
  transitions.push_back(tr);
  const Reconstruction r = reconstruct_from_isis(transitions, options());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].source, Source::kIsis);
}

// Property: downtime is invariant to interleaving extra spurious reminders
// under hold-state.
class SpuriousInvariance : public ::testing::TestWithParam<int> {};

TEST_P(SpuriousInvariance, Holds) {
  std::vector<RawTransition> base{down(100), up(500), down(1000), up(1200)};
  std::vector<RawTransition> noisy = base;
  // Insert GetParam() spurious reminders inside the first failure.
  for (int i = 0; i < GetParam(); ++i) {
    noisy.push_back(down(150 + 40 * i));
  }
  const Reconstruction rb = reconstruct(base, options());
  const Reconstruction rn = reconstruct(noisy, options());
  EXPECT_EQ(total_downtime(rb.failures).total_millis(),
            total_downtime(rn.failures).total_millis());
}

INSTANTIATE_TEST_SUITE_P(Counts, SpuriousInvariance,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace netfail::analysis
