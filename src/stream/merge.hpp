// stream::merge — fold N per-shard analysis results into one result that is
// byte-identical to the serial single-shard run.
//
// The partition invariant (sharded.hpp) makes this merge exact rather than
// approximate: every link's state lives on exactly one shard, so
//
//   - released failures / ambiguous segments / flap episodes concatenate
//     and stable-sort by link. Stability preserves each link's release
//     order, which equals the serial run's per-link order because one
//     shard saw that link's full subsequence;
//   - tracker and extraction counters sum (pending_peak is the one
//     exception: a high-water mark of buffered transitions is not
//     shard-count-invariant, so the merge takes the max and the digest
//     excludes it);
//   - IS-IS extraction stats and LSP event counts come from shard 0 and
//     are *verified* equal on every shard (the LSP stream is broadcast, so
//     any divergence is a partitioning bug, not data);
//   - detect alerts concatenate and stable-sort by link: per-link alert
//     order is reproduced exactly (window rolls happen before each
//     observation is processed, so drift alerts interleave with CUSUM and
//     hard-down alerts identically on the owning shard and serially).
//
// `render_digest` lays the merged result out as one deterministic string;
// the sharded differential tests compare digests across shard counts
// {1, 2, 4} byte for byte.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/stream/engine.hpp"

namespace netfail::stream {

/// Everything one shard's run produced: the released analysis objects (in
/// that shard's release order) plus the post-finish engine. The engine
/// pointer must stay valid for the merge call.
struct ShardRun {
  std::vector<analysis::Failure> isis_failures;
  std::vector<analysis::Failure> syslog_failures;
  std::vector<analysis::AmbiguousSegment> isis_ambiguous;
  std::vector<analysis::AmbiguousSegment> syslog_ambiguous;
  std::vector<analysis::FlapEpisode> isis_episodes;
  std::vector<analysis::FlapEpisode> syslog_episodes;
  std::vector<detect::LinkAlert> alerts;
  const StreamEngine* engine = nullptr;
};

/// One observation source's merged view.
struct MergedSide {
  std::vector<analysis::Failure> failures;          // canonical link order
  std::vector<analysis::AmbiguousSegment> ambiguous;
  std::vector<analysis::FlapEpisode> episodes;
  TrackerCounters counters;  // summed; pending_peak = max across shards
  Duration total_downtime;
};

struct MergedRun {
  MergedSide isis;
  MergedSide syslog;
  syslog::SyslogExtractionStats syslog_stats;  // summed (lines are routed)
  isis::ExtractionStats isis_stats;            // shard 0 (broadcast)
  std::vector<detect::LinkAlert> alerts;       // canonical link order
  std::uint64_t syslog_events = 0;             // summed
  std::uint64_t lsp_events = 0;                // shard 0 (broadcast)
  std::uint64_t events = 0;                    // syslog_events + lsp_events
  std::uint64_t alerts_emitted = 0;            // summed
  TimePoint high_water;                        // max
};

/// Merge per-shard runs (any count >= 1; a single serial run merges to its
/// own canonical form). Asserts the broadcast invariants (identical IS-IS
/// extraction stats and LSP event counts on every shard).
MergedRun merge_shard_runs(std::span<const ShardRun> shards);

/// Deterministic one-string rendering of a merged run: every failure,
/// ambiguous segment, episode, alert, counter and stat, link-named via the
/// census. Two runs are byte-identical iff their digests match.
std::string render_digest(const MergedRun& run, const LinkCensus& census);

}  // namespace netfail::stream
