// `netfail stream` feeds its engine through IsisLookahead: IS-IS extraction
// runs on the batch differ lanes on a producer thread, a chunk ahead of the
// engine, and each LSP event enters by `feed_isis`. Whatever the producer's
// schedule, the engine must end up exactly where a per-event
// `StreamEngine::feed` loop over the same capture leaves it: tracker
// counters, per-link stats, pending transitions at every rolling-report
// point, detector alerts and the isis.extract.* counters.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/metrics.hpp"
#include "src/isis/extract.hpp"
#include "src/sim/scenario.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/lookahead.hpp"
#include "tests/isis/hostile_capture.hpp"

namespace netfail::stream {
namespace {

/// Events between two rolling-report points (`netfail stream
/// --report-every`): small, so a capture crosses many of them.
constexpr std::uint64_t kReportEvery = 997;

constexpr std::array<const char*, 4> kCounters = {
    "isis.extract.lsps", "isis.extract.decode_failures",
    "isis.extract.stale_lsps", "isis.extract.transitions"};

std::array<std::uint64_t, 4> counter_values() {
  std::array<std::uint64_t, 4> v{};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    v[i] = metrics::global().counter(kCounters[i]).value();
  }
  return v;
}

struct Capture {
  const LinkCensus* census = nullptr;
  TimeRange period;
  std::vector<syslog::ReceivedLine> lines;
  std::vector<isis::LspRecord> records;
};

struct Observed {
  TrackerCounters isis;
  TrackerCounters syslog;
  std::vector<LinkRunningStats> isis_links;
  std::vector<LinkRunningStats> syslog_links;
  /// (IS-IS, syslog) pending transitions at each rolling-report point.
  std::vector<std::pair<std::size_t, std::size_t>> pending;
  std::vector<detect::LinkAlert> alerts;
  std::uint64_t events = 0;
  std::uint64_t lsp_events = 0;
  TimePoint high_water;
  /// The engine's own extraction counts: the per-event feed's only.
  isis::ExtractionStats isis_stats;
  std::array<std::uint64_t, 4> counters{};  // deltas, kCounters order
};

enum class Feed { kPerEvent, kLookahead };

Observed run(const Capture& cap, Feed feed, bool detect) {
  EngineOptions options;
  options.tracker.reconstruct.period = cap.period;
  options.detect.enabled = detect;
  StreamEngine engine(*cap.census, options);
  EventMux mux = EventMux::over_vectors(cap.lines, cap.records);
  Observed out;
  const auto before = counter_values();
  {
    std::optional<IsisLookahead> lookahead;
    if (feed == Feed::kLookahead) lookahead.emplace(cap.records, *cap.census);
    while (std::optional<StreamEvent> ev = mux.next()) {
      if (lookahead) {
        lookahead->feed(engine, *ev);
      } else {
        engine.feed(*ev);
      }
      if (engine.events_ingested() % kReportEvery == 0) {
        out.pending.emplace_back(engine.isis_tracker().pending_transitions(),
                                 engine.syslog_tracker().pending_transitions());
      }
    }
  }
  engine.finish();
  const auto after = counter_values();
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    out.counters[i] = after[i] - before[i];
  }
  EXPECT_EQ(mux.stats().out_of_order_dropped, 0u);
  out.isis = engine.isis_tracker().counters();
  out.syslog = engine.syslog_tracker().counters();
  out.isis_links = engine.isis_tracker().link_stats();
  out.syslog_links = engine.syslog_tracker().link_stats();
  out.alerts = engine.detector().sink().snapshot();
  out.events = engine.events_ingested();
  out.lsp_events = engine.lsp_events();
  out.high_water = engine.high_water();
  out.isis_stats = engine.isis_stats();
  return out;
}

auto counters_key(const TrackerCounters& c) {
  return std::make_tuple(c.transitions_ingested, c.failures_released,
                         c.flap_episodes, c.pending_peak, c.double_downs,
                         c.double_ups, c.merged_duplicates, c.unterminated);
}

auto link_key(const LinkRunningStats& s) {
  return std::make_tuple(s.link, s.failures, s.downtime, s.state,
                         s.last_transition, s.flap_episodes,
                         s.failures_in_episodes);
}

auto alert_key(const detect::LinkAlert& a) {
  return std::make_tuple(a.link, a.time, a.kind, a.score, a.template_id);
}

template <typename T, typename KeyFn>
void expect_same_rows(const std::vector<T>& per_event,
                      const std::vector<T>& lookahead, KeyFn key,
                      const char* what) {
  ASSERT_EQ(per_event.size(), lookahead.size()) << what;
  for (std::size_t i = 0; i < per_event.size(); ++i) {
    EXPECT_TRUE(key(per_event[i]) == key(lookahead[i])) << what << " " << i;
  }
}

/// Runs both feeds over `cap` and checks they agree; returns the per-event
/// side for test-specific coverage assertions.
Observed expect_feeds_agree(const Capture& cap, bool detect) {
  const Observed per_event = run(cap, Feed::kPerEvent, detect);
  const Observed lookahead = run(cap, Feed::kLookahead, detect);
  EXPECT_EQ(counters_key(per_event.isis), counters_key(lookahead.isis));
  EXPECT_EQ(counters_key(per_event.syslog), counters_key(lookahead.syslog));
  expect_same_rows(per_event.isis_links, lookahead.isis_links, link_key,
                   "IS-IS link");
  expect_same_rows(per_event.syslog_links, lookahead.syslog_links, link_key,
                   "syslog link");
  EXPECT_EQ(per_event.pending, lookahead.pending);
  expect_same_rows(per_event.alerts, lookahead.alerts, alert_key, "alert");
  EXPECT_EQ(per_event.events, lookahead.events);
  EXPECT_EQ(per_event.lsp_events, lookahead.lsp_events);
  EXPECT_EQ(per_event.high_water, lookahead.high_water);
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    EXPECT_EQ(per_event.counters[i], lookahead.counters[i]) << kCounters[i];
  }
  return per_event;
}

Capture simulated(std::uint64_t seed,
                  std::shared_ptr<const analysis::PipelineCapture>& keep) {
  keep = analysis::ScenarioCache::global().capture(sim::test_scenario(seed));
  return Capture{&keep->census, keep->period, keep->sim.collector.lines(),
                 keep->sim.listener.records()};
}

Capture hostile(const isis::HostileCapture& h) {
  return Capture{&h.census, h.period, {}, h.records};
}

// ---- Tests -------------------------------------------------------------------

TEST(StreamLookahead, SimulatedSeedsMatchPerEventFeed) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const bool detect : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (detect ? ", detection on" : ", detection off"));
      std::shared_ptr<const analysis::PipelineCapture> keep;
      const Capture cap = simulated(seed, keep);
      ASSERT_FALSE(cap.records.empty());
      const Observed seen = expect_feeds_agree(cap, detect);
      EXPECT_GT(seen.isis.failures_released, 0u);
      EXPECT_GT(seen.syslog.failures_released, 0u);
      EXPECT_FALSE(seen.pending.empty());
      if (detect) {
        EXPECT_FALSE(seen.alerts.empty());
      }
    }
  }
}

TEST(StreamLookahead, EmptyCapture) {
  std::shared_ptr<const analysis::PipelineCapture> keep;
  Capture cap = simulated(1, keep);
  cap.lines.clear();
  cap.records.clear();
  const Observed seen = expect_feeds_agree(cap, /*detect=*/true);
  EXPECT_EQ(seen.events, 0u);
}

TEST(StreamLookahead, SyslogOnlyCapture) {
  std::shared_ptr<const analysis::PipelineCapture> keep;
  Capture cap = simulated(2, keep);
  cap.records.clear();
  const Observed seen = expect_feeds_agree(cap, /*detect=*/true);
  EXPECT_EQ(seen.lsp_events, 0u);
  EXPECT_GT(seen.syslog.failures_released, 0u);
}

TEST(StreamLookahead, LspOnlyCapture) {
  std::shared_ptr<const analysis::PipelineCapture> keep;
  Capture cap = simulated(3, keep);
  cap.lines.clear();
  const Observed seen = expect_feeds_agree(cap, /*detect=*/true);
  EXPECT_EQ(seen.lsp_events, cap.records.size());
  EXPECT_GT(seen.isis.failures_released, 0u);
}

TEST(StreamLookahead, ChunkBoundaries) {
  // Exactly one chunk, one chunk and one record, and three chunks: the
  // engine crosses into a new chunk at the first record, at the last one,
  // and twice mid-capture.
  for (const std::size_t records :
       {isis::kExtractChunk, isis::kExtractChunk + 1,
        3 * isis::kExtractChunk}) {
    SCOPED_TRACE(std::to_string(records) + " records");
    const isis::HostileCapture h =
        isis::make_hostile({.seed = 17, .routers = 9, .records = records});
    const Observed seen = expect_feeds_agree(hostile(h), /*detect=*/true);
    EXPECT_EQ(seen.lsp_events, records);
    EXPECT_GT(seen.isis.transitions_ingested, 0u);
  }
}

TEST(StreamLookahead, HostileRecordsMatchPerEventFeed) {
  // Bad checksums, truncated records, stale sequence numbers, purges and
  // unknown neighbors all reach both feeds.
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const isis::HostileCapture h =
        isis::make_hostile({.seed = seed, .routers = 9, .records = 5000});
    const Observed seen = expect_feeds_agree(hostile(h), /*detect=*/true);
    const isis::ExtractionStats& st = seen.isis_stats;
    EXPECT_GT(st.checksum_failures, 0u);
    EXPECT_GT(st.parse_failures, 0u);
    EXPECT_GT(st.stale_lsps, 0u);
    EXPECT_GT(st.purges, 0u);
    EXPECT_GT(st.unknown_host_pairs, 0u);
  }
}

TEST(StreamLookahead, StopsEarlyWithoutDraining) {
  // The engine may stop mid-capture (an interrupted run); the producer,
  // blocked on a full queue, must still shut down.
  const isis::HostileCapture h = isis::make_hostile(
      {.seed = 5, .routers = 9, .records = 4 * isis::kExtractChunk});
  EngineOptions options;
  options.tracker.reconstruct.period = h.period;
  StreamEngine engine(h.census, options);
  const std::vector<syslog::ReceivedLine> no_lines;
  EventMux mux = EventMux::over_vectors(no_lines, h.records);
  IsisLookahead lookahead(h.records, h.census);
  for (int i = 0; i < 10; ++i) lookahead.feed(engine, *mux.next());
  EXPECT_EQ(engine.lsp_events(), 10u);
}

TEST(StreamLookaheadDeathTest, RecordTheMuxDroppedAborts) {
  // An out-of-order vector makes the mux drop a record; the lookahead
  // checks each LSP event against the next record instead of re-deciding
  // what the mux drops.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const isis::HostileCapture h =
      isis::make_hostile({.seed = 9, .routers = 3, .records = 50});
  std::vector<isis::LspRecord> records = h.records;
  records[10].received_at = records[9].received_at - Duration::seconds(1);
  EXPECT_DEATH(
      {
        EngineOptions options;
        options.tracker.reconstruct.period = h.period;
        StreamEngine engine(h.census, options);
        const std::vector<syslog::ReceivedLine> no_lines;
        EventMux mux = EventMux::over_vectors(no_lines, records);
        IsisLookahead lookahead(records, h.census);
        while (std::optional<StreamEvent> ev = mux.next()) {
          lookahead.feed(engine, *ev);
        }
      },
      "in order");
}

}  // namespace
}  // namespace netfail::stream
