// stream::LinkTracker — the online equivalent of `analysis::reconstruct`.
//
// Ingests one source's (link, time, dir) transitions as they arrive and
// maintains, incrementally:
//   - the per-link reconstruction FSM (the exact `analysis::LinkWalker` the
//     batch path runs, so results are interval-identical);
//   - sliding-window flap detection (the 10-minute rule of paper sect. 4.1)
//     as a per-link running episode instead of a global regrouping pass;
//   - running availability/downtime counters per link.
//
// Memory is O(links + window), never O(events):
//   - transitions are buffered per link only until the reorder horizon
//     passes them (a watermark `horizon` behind the newest arrival), which
//     absorbs clock skew between message timestamps and arrival order —
//     the batch path gets the same effect by sorting the full trace;
//   - finished failures leave through the `on_failure` callback as soon as
//     retraction is impossible; only O(1) per link is held back;
//   - link state exists only for links that produced a transition, and the
//     engine feeds only census-resolved links, so it is bounded by the
//     census.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/analysis/flaps.hpp"
#include "src/analysis/link_walker.hpp"
#include "src/analysis/reconstruct.hpp"

namespace netfail::svc {
class EngineCodec;  // durable snapshot serializer (src/svc)
}  // namespace netfail::svc

namespace netfail::stream {

struct TrackerOptions {
  /// Policy and study period for the FSM (must match the batch run to be
  /// comparable). Merge window and flap rule are the batch path's constants.
  analysis::ReconstructOptions reconstruct;
  /// Tag released failures with this source.
  analysis::Source source = analysis::Source::kIsis;
  /// Transitions are held back until the high-water arrival time is this
  /// far past their timestamp, then applied in (time, arrival) order. Must
  /// exceed the worst timestamp-vs-arrival skew of the source (router clock
  /// skew + delivery delay; seconds in practice) for exact batch
  /// equivalence.
  Duration reorder_horizon = Duration::seconds(60);
};

/// Per-link running counters; O(1) state each.
struct LinkRunningStats {
  LinkId link;
  std::size_t failures = 0;
  Duration downtime;
  LinkDirection state = LinkDirection::kUp;
  TimePoint last_transition;
  std::size_t flap_episodes = 0;
  std::size_t failures_in_episodes = 0;
};

struct TrackerCounters {
  std::uint64_t transitions_ingested = 0;
  std::uint64_t failures_released = 0;
  std::uint64_t flap_episodes = 0;
  std::uint64_t pending_peak = 0;  // high-water mark of buffered transitions
  // FSM counters (same meaning as analysis::Reconstruction).
  std::uint64_t double_downs = 0;
  std::uint64_t double_ups = 0;
  std::uint64_t merged_duplicates = 0;
  std::uint64_t unterminated = 0;
};

class LinkTracker {
 public:
  explicit LinkTracker(TrackerOptions options = {});

  // Copyable by design: a checkpoint is a copy of the tracker.

  /// Released failures, per link in chronological order. A failure is
  /// released only once no later event can retract it.
  std::function<void(const analysis::Failure&)> on_failure;
  /// Closed flap episodes (>= kFlapMinFailures failures, gaps <=
  /// kFlapMaxGap).
  std::function<void(const analysis::FlapEpisode&)> on_flap_episode;
  /// Ambiguous (double DOWN / double UP) segments, as the FSM sees them.
  std::function<void(const analysis::AmbiguousSegment&)> on_ambiguous;

  /// Feed one transition. Arrival order must be nondecreasing in
  /// `arrival`; the transition's own timestamp may lag or lead arrival by
  /// up to the reorder horizon.
  void ingest(const analysis::RawTransition& tr, TimePoint arrival);
  /// Convenience: arrival == transition time (sources whose timestamps are
  /// already monotone, like listener arrival times).
  void ingest(const analysis::RawTransition& tr) { ingest(tr, tr.time); }

  /// Flush every link's eligible buffered transitions (callers that pause
  /// between bursts use this to push the watermark through).
  void poll();

  /// End of stream: drain all buffers, close open episodes, count
  /// unterminated failures. Further ingest is a programming error.
  void finish();

  // -- snapshots --------------------------------------------------------------
  const TrackerCounters& counters() const { return counters_; }
  std::size_t tracked_links() const { return links_.size(); }
  std::size_t pending_transitions() const { return pending_total_; }
  /// Per-link running stats, link order.
  std::vector<LinkRunningStats> link_stats() const;
  /// Total downtime released so far, all links.
  Duration total_downtime() const { return total_downtime_; }
  TimePoint high_water() const { return high_water_; }

 private:
  friend class netfail::svc::EngineCodec;

  struct PendingTransition {
    TimePoint time;
    std::uint64_t seq = 0;  // arrival order, for stable ties
    LinkDirection dir = LinkDirection::kDown;
    bool operator<(const PendingTransition& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };

  struct PerLink {
    analysis::LinkWalker::State walker;
    /// Min-heap on (time, seq); see flush_link.
    std::vector<PendingTransition> pending;
    /// Failures emitted by the walker but not yet released. Only the
    /// newest failure of a link can ever be retracted (kDrop double-UP),
    /// so at most one element is held back here.
    std::vector<analysis::Failure> held;
    LinkRunningStats stats;
    // Current flap run (sliding-window episode detection).
    std::size_t run_count = 0;
    TimePoint run_start;
    TimePoint run_last_end;
  };

  PerLink& link_state(LinkId link);
  void flush_link(LinkId link, PerLink& pl, TimePoint up_to);
  void apply(LinkId link, PerLink& pl, const PendingTransition& tr);
  void release(LinkId link, PerLink& pl, std::size_t keep);
  void close_run(LinkId link, PerLink& pl);

  TrackerOptions options_;
  std::map<LinkId, PerLink> links_;
  TrackerCounters counters_;
  /// Walker counter sink; its failure/ambiguous vectors stay empty (the
  /// walker writes those through per-link sinks).
  analysis::Reconstruction walker_counters_;
  std::vector<analysis::AmbiguousSegment> ambiguous_scratch_;
  Duration total_downtime_;
  TimePoint high_water_;
  bool has_high_water_ = false;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_total_ = 0;
  bool finished_ = false;
};

}  // namespace netfail::stream
