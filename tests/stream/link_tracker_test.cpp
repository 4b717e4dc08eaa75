#include "src/stream/link_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/analysis/flaps.hpp"
#include "src/analysis/reconstruct.hpp"

namespace netfail::stream {
namespace {

using analysis::Failure;
using analysis::RawTransition;

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

TrackerOptions small_options() {
  TrackerOptions o;
  o.reconstruct.period = {at(0), at(1000000)};
  o.reorder_horizon = Duration::seconds(10);
  return o;
}

RawTransition down(std::uint32_t link, std::int64_t s) {
  return {LinkId(link), at(s), LinkDirection::kDown};
}
RawTransition up(std::uint32_t link, std::int64_t s) {
  return {LinkId(link), at(s), LinkDirection::kUp};
}

TEST(LinkTracker, BasicFailureReleased) {
  LinkTracker tracker(small_options());
  std::vector<Failure> released;
  tracker.on_failure = [&](const Failure& f) { released.push_back(f); };

  tracker.ingest(down(0, 100));
  tracker.ingest(up(0, 160));
  // Not yet past the reorder horizon: still buffered.
  tracker.ingest(down(1, 300));  // arrival 300 flushes link 0's buffer
  tracker.poll();
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].link, LinkId(0));
  EXPECT_EQ(released[0].span.begin, at(100));
  EXPECT_EQ(released[0].span.end, at(160));
  EXPECT_EQ(released[0].duration(), Duration::seconds(60));

  tracker.finish();
  EXPECT_EQ(released.size(), 1u);  // link 1 has no UP: unterminated
  EXPECT_EQ(tracker.counters().unterminated, 1u);
  EXPECT_EQ(tracker.counters().failures_released, 1u);
  EXPECT_EQ(tracker.total_downtime(), Duration::seconds(60));
}

TEST(LinkTracker, ReordersWithinHorizon) {
  // Arrival order UP-then-DOWN, timestamps say DOWN-then-UP: the pending
  // heap must re-sort them before the FSM sees them.
  LinkTracker tracker(small_options());
  std::vector<Failure> released;
  tracker.on_failure = [&](const Failure& f) { released.push_back(f); };

  tracker.ingest(up(0, 105), at(106));
  tracker.ingest(down(0, 100), at(107));
  tracker.finish();
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].span.begin, at(100));
  EXPECT_EQ(released[0].span.end, at(105));
}

TEST(LinkTracker, RunningStatsTrackState) {
  LinkTracker tracker(small_options());
  tracker.ingest(down(0, 100));
  tracker.ingest(up(0, 200));
  tracker.ingest(down(0, 5000));
  tracker.finish();

  const std::vector<LinkRunningStats> stats = tracker.link_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].failures, 1u);
  EXPECT_EQ(stats[0].downtime, Duration::seconds(100));
  EXPECT_EQ(stats[0].state, LinkDirection::kDown);  // last transition: DOWN
}

TEST(LinkTracker, FlapEpisodeDetectedOnline) {
  // Three failures, gaps < 10 min -> one episode of three (paper sect. 4.1);
  // a fourth failure 20 min later starts a new run that never reaches
  // min_failures and emits nothing.
  LinkTracker tracker(small_options());
  std::vector<analysis::FlapEpisode> episodes;
  tracker.on_flap_episode = [&](const analysis::FlapEpisode& e) {
    episodes.push_back(e);
  };

  tracker.ingest(down(0, 100));
  tracker.ingest(up(0, 110));
  tracker.ingest(down(0, 200));
  tracker.ingest(up(0, 230));
  tracker.ingest(down(0, 500));
  tracker.ingest(up(0, 520));
  tracker.ingest(down(0, 520 + 1200));  // 20 min after the last UP
  tracker.ingest(up(0, 520 + 1260));
  tracker.finish();

  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].link, LinkId(0));
  EXPECT_EQ(episodes[0].failure_count, 3u);
  EXPECT_EQ(episodes[0].span.begin, at(100));
  EXPECT_EQ(episodes[0].span.end, at(520));
  EXPECT_EQ(tracker.counters().flap_episodes, 1u);
}

TEST(LinkTracker, FlapGapBoundaryMatchesBatch) {
  // Link 0's second failure starts exactly kFlapMaxGap after its first
  // ends: one episode. Link 1's starts 1 ms later: none. The batch path
  // (reconstruct, then detect_flaps) and the tracker must both say so.
  const Duration outage = Duration::seconds(30);
  const TimePoint t0 = at(1000);
  std::vector<RawTransition> transitions;
  auto fail = [&](std::uint32_t link, TimePoint begin) {
    transitions.push_back({LinkId(link), begin, LinkDirection::kDown});
    transitions.push_back({LinkId(link), begin + outage, LinkDirection::kUp});
  };
  fail(0, t0);
  fail(0, t0 + outage + analysis::kFlapMaxGap);
  fail(1, t0);
  fail(1, t0 + outage + analysis::kFlapMaxGap + Duration::millis(1));
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const RawTransition& a, const RawTransition& b) {
                     return a.time < b.time;
                   });

  LinkTracker tracker(small_options());
  std::vector<analysis::FlapEpisode> online;
  tracker.on_flap_episode = [&](const analysis::FlapEpisode& e) {
    online.push_back(e);
  };
  for (const RawTransition& tr : transitions) tracker.ingest(tr);
  tracker.finish();

  std::vector<Failure> failures =
      analysis::reconstruct(transitions, small_options().reconstruct).failures;
  ASSERT_EQ(failures.size(), 4u);
  const analysis::FlapAnalysis batch = analysis::detect_flaps(failures);

  ASSERT_EQ(batch.episodes.size(), 1u);
  EXPECT_EQ(batch.episodes[0].link, LinkId(0));
  EXPECT_EQ(batch.episodes[0].failure_count, 2u);
  ASSERT_EQ(online.size(), batch.episodes.size());
  EXPECT_EQ(online[0].link, batch.episodes[0].link);
  EXPECT_EQ(online[0].span, batch.episodes[0].span);
  EXPECT_EQ(online[0].failure_count, batch.episodes[0].failure_count);
}

TEST(LinkTracker, DropPolicyRetractsBeforeRelease) {
  // Under kDrop a double-UP retracts the failure just closed; the tracker
  // must not have released it through the callback yet.
  TrackerOptions options = small_options();
  options.reconstruct.policy = analysis::AmbiguityPolicy::kDrop;
  LinkTracker tracker(options);
  std::vector<Failure> released;
  tracker.on_failure = [&](const Failure& f) { released.push_back(f); };

  tracker.ingest(down(0, 100));
  tracker.ingest(up(0, 150));
  tracker.ingest(up(0, 155));  // double UP: retracts [100, 150)
  tracker.ingest(down(0, 300));
  tracker.ingest(up(0, 360));
  tracker.finish();

  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].span.begin, at(300));
  EXPECT_EQ(released[0].span.end, at(360));
  EXPECT_EQ(tracker.counters().double_ups, 1u);
}

TEST(LinkTracker, MergeWindowCollapsesBothEndReports) {
  LinkTracker tracker(small_options());
  tracker.ingest(down(0, 100));
  tracker.ingest(down(0, 101));  // other end, within the 3 s merge window
  tracker.ingest(up(0, 200));
  tracker.ingest(up(0, 202));
  tracker.finish();
  EXPECT_EQ(tracker.counters().merged_duplicates, 2u);
  EXPECT_EQ(tracker.counters().double_downs, 0u);
  EXPECT_EQ(tracker.counters().failures_released, 1u);
}

TEST(LinkTracker, PendingDrainsAtWatermark) {
  LinkTracker tracker(small_options());
  tracker.ingest(down(0, 100));
  EXPECT_EQ(tracker.pending_transitions(), 1u);
  // Watermark = high-water arrival - horizon; arrival 120 releases t=100.
  tracker.ingest(up(1, 120));
  tracker.poll();
  EXPECT_EQ(tracker.pending_transitions(), 1u);  // only t=120 still inside
  EXPECT_GE(tracker.counters().pending_peak, 2u);
  tracker.finish();
  EXPECT_EQ(tracker.pending_transitions(), 0u);
}

TEST(LinkTracker, CopyIsIndependent) {
  // Copyability is what checkpoints are built on: mutating the copy must
  // not leak into the original.
  LinkTracker tracker(small_options());
  tracker.ingest(down(0, 100));

  LinkTracker copy = tracker;
  copy.ingest(up(0, 200));
  copy.finish();
  EXPECT_EQ(copy.counters().failures_released, 1u);
  EXPECT_EQ(tracker.counters().failures_released, 0u);

  tracker.finish();
  EXPECT_EQ(tracker.counters().failures_released, 0u);  // no UP ever seen
  EXPECT_EQ(tracker.counters().unterminated, 1u);
}

}  // namespace
}  // namespace netfail::stream
