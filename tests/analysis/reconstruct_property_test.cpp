// Property tests: reconstruction invariants on randomized transition
// streams. These hold for ANY input, not just well-formed ones.
#include <gtest/gtest.h>

#include "src/analysis/reconstruct.hpp"
#include "src/common/rng.hpp"

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

ReconstructOptions options(AmbiguityPolicy policy) {
  ReconstructOptions o;
  o.policy = policy;
  o.period = TimeRange{at(0), at(1'000'000)};
  return o;
}

/// A random stream: per link, mostly-alternating transitions with noise
/// (duplicates, repeats, missing partners) — a caricature of lossy syslog.
std::vector<RawTransition> random_stream(std::uint64_t seed, int links,
                                         int events_per_link) {
  Rng rng(seed);
  std::vector<RawTransition> out;
  for (int l = 0; l < links; ++l) {
    std::int64_t t = rng.uniform_int(0, 1000);
    LinkDirection dir = LinkDirection::kDown;
    for (int e = 0; e < events_per_link; ++e) {
      out.push_back(RawTransition{LinkId{static_cast<std::uint32_t>(l)},
                                  at(t), dir});
      // 70%: alternate normally; 20%: repeat the same direction (noise);
      // 10%: emit a near-duplicate within the merge window.
      const double roll = rng.next_double();
      if (roll < 0.7) {
        dir = dir == LinkDirection::kDown ? LinkDirection::kUp
                                          : LinkDirection::kDown;
        t += rng.uniform_int(5, 5000);
      } else if (roll < 0.9) {
        t += rng.uniform_int(20, 5000);
      } else {
        t += rng.uniform_int(0, 2);
      }
    }
  }
  return out;
}

class ReconstructProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconstructProperty, FailuresDisjointSortedAndInsidePeriod) {
  const auto stream = random_stream(GetParam(), 8, 60);
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    const Reconstruction r = reconstruct(stream, options(policy));
    std::map<LinkId, TimePoint> last_end;
    TimePoint prev_start = at(-1);
    for (const Failure& f : r.failures) {
      EXPECT_FALSE(f.span.empty());
      EXPECT_GE(f.span.begin, options(policy).period.begin);
      EXPECT_LE(f.span.end, options(policy).period.end);
      EXPECT_GE(f.span.begin, prev_start);  // globally sorted by start
      prev_start = f.span.begin;
      const auto it = last_end.find(f.link);
      if (it != last_end.end()) {
        EXPECT_GE(f.span.begin, it->second)
            << "overlapping failures on one link under policy "
            << ambiguity_policy_name(policy);
      }
      last_end[f.link] = f.span.end;
    }
  }
}

TEST_P(ReconstructProperty, PolicyDowntimeOrdering) {
  const auto stream = random_stream(GetParam() + 100, 8, 60);
  const double drop =
      total_downtime(reconstruct(stream, options(AmbiguityPolicy::kDrop)).failures)
          .seconds_f();
  const double up = total_downtime(
                        reconstruct(stream, options(AmbiguityPolicy::kAssumeUp))
                            .failures)
                        .seconds_f();
  const double hold =
      total_downtime(
          reconstruct(stream, options(AmbiguityPolicy::kHoldState)).failures)
          .seconds_f();
  const double down =
      total_downtime(
          reconstruct(stream, options(AmbiguityPolicy::kAssumeDown)).failures)
          .seconds_f();
  EXPECT_LE(drop, up + 1e-9);
  EXPECT_LE(up, hold + 1e-9);
  EXPECT_LE(hold, down + 1e-9);
}

TEST_P(ReconstructProperty, AmbiguityCountsMatchSegments) {
  const auto stream = random_stream(GetParam() + 200, 8, 60);
  const Reconstruction r =
      reconstruct(stream, options(AmbiguityPolicy::kHoldState));
  EXPECT_EQ(r.ambiguous.size(), r.double_downs + r.double_ups);
  for (const AmbiguousSegment& seg : r.ambiguous) {
    EXPECT_LE(seg.first_message, seg.second_message);
  }
}

TEST_P(ReconstructProperty, AmbiguityBookkeepingIsPolicyInvariant) {
  // The *diagnosis* (how many double messages) must not depend on the
  // repair policy; only the reconstruction does.
  const auto stream = random_stream(GetParam() + 300, 8, 60);
  const Reconstruction a =
      reconstruct(stream, options(AmbiguityPolicy::kDrop));
  const Reconstruction b =
      reconstruct(stream, options(AmbiguityPolicy::kAssumeDown));
  EXPECT_EQ(a.double_downs, b.double_downs);
  EXPECT_EQ(a.double_ups, b.double_ups);
  EXPECT_EQ(a.merged_duplicates, b.merged_duplicates);
}

TEST_P(ReconstructProperty, WiderMergeWindowNeverAddsFailures) {
  // The merge window is the constant kMergeWindow (3 s), so the stream is
  // stretched instead: on the stream stretched threefold it acts as a 1 s
  // window on the original, which must merge no more than 3 s does.
  const auto stream = random_stream(GetParam() + 400, 8, 60);
  std::vector<RawTransition> stretched = stream;
  for (RawTransition& tr : stretched) {
    tr.time = TimePoint::from_unix_millis(3 * tr.time.unix_millis());
  }
  ReconstructOptions narrow = options(AmbiguityPolicy::kHoldState);
  narrow.period = TimeRange{at(0), at(3'000'000)};
  const ReconstructOptions wide = options(AmbiguityPolicy::kHoldState);
  const Reconstruction rn = reconstruct(stretched, narrow);
  const Reconstruction rw = reconstruct(stream, wide);
  EXPECT_GE(rw.merged_duplicates, rn.merged_duplicates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconstructProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace netfail::analysis
