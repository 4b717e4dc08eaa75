// Batch extraction diffs LSP sources on concurrent lanes and folds their
// deltas in record order; StreamingExtractor runs the same differ and fold
// back to back per record. Whatever the lane schedule, the two must agree
// exactly: every transition field for field, the ExtractionStats, and the
// isis.extract.* counter deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/metrics.hpp"
#include "src/isis/extract.hpp"
#include "src/sim/scenario.hpp"
#include "tests/isis/hostile_capture.hpp"

namespace netfail::isis {
namespace {

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

struct Run {
  IsisExtraction ex;
  std::array<std::uint64_t, 4> counters{};  // deltas, kCounters order
};

Run run_batch(const std::vector<LspRecord>& records, const LinkCensus& census) {
  Run run;
  const auto before = counter_values();
  run.ex = extract_transitions(records, census);
  const auto after = counter_values();
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    run.counters[i] = after[i] - before[i];
  }
  return run;
}

Run run_stream(const std::vector<LspRecord>& records, const LinkCensus& census) {
  Run run;
  const auto before = counter_values();
  StreamingExtractor extractor(&census);
  std::vector<IsisTransition> emitted;
  for (const LspRecord& rec : records) {
    emitted.clear();
    extractor.feed(rec, emitted);
    for (const IsisTransition& tr : emitted) {
      (tr.field == ReachabilityField::kIsReach ? run.ex.is_reach
                                               : run.ex.ip_reach)
          .push_back(tr);
    }
  }
  run.ex.stats = extractor.stats();
  const auto after = counter_values();
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    run.counters[i] = after[i] - before[i];
  }
  return run;
}

void expect_same_transitions(const std::vector<IsisTransition>& batch,
                             const std::vector<IsisTransition>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    const IsisTransition& b = batch[i];
    const IsisTransition& s = stream[i];
    EXPECT_EQ(b.time, s.time);
    EXPECT_EQ(b.dir, s.dir);
    EXPECT_EQ(b.field, s.field);
    EXPECT_EQ(b.link, s.link);
    EXPECT_EQ(b.multilink, s.multilink);
    EXPECT_EQ(b.host_a, s.host_a);
    EXPECT_EQ(b.host_b, s.host_b);
    EXPECT_EQ(b.pair_count_after, s.pair_count_after);
  }
}

void expect_same_stats(const ExtractionStats& b, const ExtractionStats& s) {
  EXPECT_EQ(b.lsps_processed, s.lsps_processed);
  EXPECT_EQ(b.checksum_failures, s.checksum_failures);
  EXPECT_EQ(b.parse_failures, s.parse_failures);
  EXPECT_EQ(b.stale_lsps, s.stale_lsps);
  EXPECT_EQ(b.purges, s.purges);
  EXPECT_EQ(b.unknown_host_pairs, s.unknown_host_pairs);
  EXPECT_EQ(b.unknown_prefixes, s.unknown_prefixes);
  EXPECT_EQ(b.multilink_transitions, s.multilink_transitions);
}

/// Runs both schedules over `records` and checks they agree; returns the
/// batch side for test-specific coverage assertions.
IsisExtraction expect_schedules_agree(const std::vector<LspRecord>& records,
                                      const LinkCensus& census) {
  const Run stream = run_stream(records, census);
  const Run batch = run_batch(records, census);
  {
    SCOPED_TRACE("IS reachability");
    expect_same_transitions(batch.ex.is_reach, stream.ex.is_reach);
  }
  {
    SCOPED_TRACE("IP reachability");
    expect_same_transitions(batch.ex.ip_reach, stream.ex.ip_reach);
  }
  expect_same_stats(batch.ex.stats, stream.ex.stats);
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    EXPECT_EQ(batch.counters[i], stream.counters[i]) << kCounters[i];
  }
  EXPECT_EQ(batch.counters[0], batch.ex.stats.lsps_processed);
  EXPECT_EQ(batch.counters[1], batch.ex.stats.checksum_failures +
                                   batch.ex.stats.parse_failures);
  EXPECT_EQ(batch.counters[2], batch.ex.stats.stale_lsps);
  EXPECT_EQ(batch.counters[3],
            batch.ex.is_reach.size() + batch.ex.ip_reach.size());
  return batch.ex;
}

// ---- Tests -------------------------------------------------------------------

TEST(ExtractLanes, SimulatedSeedsMatchStreaming) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::shared_ptr<const analysis::PipelineCapture> cap =
        analysis::ScenarioCache::global().capture(sim::test_scenario(seed));
    const std::vector<LspRecord>& records = cap->sim.listener.records();
    ASSERT_FALSE(records.empty());
    const IsisExtraction ex = expect_schedules_agree(records, cap->census);
    EXPECT_FALSE(ex.is_reach.empty());
    EXPECT_FALSE(ex.ip_reach.empty());
  }
}

TEST(ExtractLanes, HostileCaptureAcrossChunksMatchesStreaming) {
  const HostileCapture cap =
      make_hostile({.seed = 11, .routers = 9, .records = 3 * kExtractChunk});
  ASSERT_GT(cap.records.size(), 2 * kExtractChunk);  // several chunks
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  // Every hostile input reached the extractor.
  const ExtractionStats& st = ex.stats;
  EXPECT_GT(st.checksum_failures, 0u);
  EXPECT_GT(st.parse_failures, 0u);
  EXPECT_GT(st.stale_lsps, 0u);
  EXPECT_GT(st.purges, 0u);
  EXPECT_GT(st.unknown_host_pairs, 0u);
  EXPECT_GT(st.unknown_prefixes, 0u);
  EXPECT_GT(st.multilink_transitions, 0u);
  EXPECT_FALSE(ex.is_reach.empty());
  EXPECT_FALSE(ex.ip_reach.empty());
}

TEST(ExtractLanes, HostileSeedsMatchStreaming) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HostileCapture cap =
        make_hostile({.seed = seed, .routers = 9, .records = 5000});
    expect_schedules_agree(cap.records, cap.census);
  }
}

TEST(ExtractLanes, SingleSourceCaptureUsesOneLane) {
  // One router: every record lands on its lane, across chunks.
  const HostileCapture cap =
      make_hostile({.seed = 5, .routers = 1, .records = kExtractChunk + 777});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_GT(ex.stats.lsps_processed, kExtractChunk / 2);
  EXPECT_TRUE(ex.is_reach.empty());  // no pair ever has both ends reporting
}

TEST(ExtractLanes, LanesFallIdleWhenSourcesGoQuiet) {
  // In the first chunk nine sources spread over the lanes by the hash of
  // their ids. The next two hear from one source, so only its lane diffs
  // while the others' second buffer still holds the first chunk's deltas;
  // in the last chunk every source is back, on the lane it had before.
  const HostileCapture cap = make_hostile({.seed = 3,
                                           .routers = 9,
                                           .records = 4 * kExtractChunk,
                                           .solo_from = kExtractChunk,
                                           .solo_until = 3 * kExtractChunk});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_FALSE(ex.is_reach.empty());
}

TEST(ExtractLanes, FewerSourcesThanLanes) {
  static_assert(kExtractLanes > 2);
  for (std::size_t routers = 2; routers < kExtractLanes; ++routers) {
    SCOPED_TRACE(std::to_string(routers) + " sources");
    const HostileCapture cap =
        make_hostile({.seed = 7, .routers = routers, .records = 4000});
    const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
    EXPECT_FALSE(ex.is_reach.empty());
  }
}

TEST(ExtractLanes, EmptyCapture) {
  const HostileCapture cap = make_hostile({.seed = 1, .routers = 3, .records = 0});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_EQ(ex.stats.lsps_processed, 0u);
  EXPECT_TRUE(ex.is_reach.empty());
}

TEST(ExtractLanes, ChunkOffsetsSliceEachRecordsTransitions) {
  // Three chunks and a few records: each record's slices of its chunk are
  // exactly what the per-record feed emits for it, IS reach then IP reach.
  const HostileCapture cap = make_hostile(
      {.seed = 13, .routers = 9, .records = 3 * kExtractChunk + 5});
  StreamingExtractor extractor(&cap.census);
  LaneExtractor lanes(cap.records, cap.census);
  ExtractedChunk chunk;
  std::vector<IsisTransition> emitted;
  std::vector<IsisTransition> sliced;
  std::size_t record = 0;
  std::size_t chunks = 0;
  while (lanes.next_chunk(chunk)) {
    ASSERT_EQ(chunk.begin, record);
    ASSERT_EQ(chunk.end, std::min(cap.records.size(), record + kExtractChunk));
    for (; record < chunk.end; ++record) {
      SCOPED_TRACE("record " + std::to_string(record));
      emitted.clear();
      extractor.feed(cap.records[record], emitted);
      const auto is = chunk.is_reach_of(record);
      const auto ip = chunk.ip_reach_of(record);
      sliced.assign(is.begin(), is.end());
      sliced.insert(sliced.end(), ip.begin(), ip.end());
      expect_same_transitions(sliced, emitted);
      if (HasFailure()) return;
    }
    ++chunks;
  }
  EXPECT_EQ(chunks, 4u);
  EXPECT_EQ(record, cap.records.size());
  EXPECT_FALSE(lanes.next_chunk(chunk));
}

}  // namespace
}  // namespace netfail::isis
