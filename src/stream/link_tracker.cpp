#include "src/stream/link_tracker.hpp"

#include <algorithm>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/metrics.hpp"

namespace netfail::stream {
namespace {

struct TrackerMetrics {
  metrics::Counter& transitions =
      metrics::global().counter("stream.tracker.transitions");
  metrics::Counter& failures =
      metrics::global().counter("stream.tracker.failures_released");
  metrics::Counter& episodes =
      metrics::global().counter("stream.tracker.flap_episodes");
};

// Namespace-scope so the per-transition hot path carries no static-init guard.
TrackerMetrics g_tracker_metrics;

TrackerMetrics& tracker_metrics() { return g_tracker_metrics; }

constexpr TimePoint time_max() {
  return TimePoint::from_unix_millis(std::numeric_limits<std::int64_t>::max());
}

}  // namespace

LinkTracker::LinkTracker(TrackerOptions options)
    : options_(std::move(options)) {}

LinkTracker::PerLink& LinkTracker::link_state(LinkId link) {
  auto it = links_.find(link);
  if (it == links_.end()) {
    it = links_.emplace(link, PerLink{}).first;
    it->second.stats.link = link;
  }
  return it->second;
}

void LinkTracker::ingest(const analysis::RawTransition& tr, TimePoint arrival) {
  NETFAIL_ASSERT(!finished_, "LinkTracker::ingest after finish()");
  ++counters_.transitions_ingested;
  tracker_metrics().transitions.inc();
  if (!has_high_water_ || arrival > high_water_) {
    high_water_ = arrival;
    has_high_water_ = true;
  }

  PerLink& pl = link_state(tr.link);
  pl.pending.push_back(PendingTransition{tr.time, next_seq_++, tr.dir});
  std::push_heap(pl.pending.begin(), pl.pending.end(),
                 [](const PendingTransition& a, const PendingTransition& b) {
                   return b < a;  // min-heap on (time, seq)
                 });
  ++pending_total_;
  counters_.pending_peak = std::max<std::uint64_t>(
      counters_.pending_peak, pending_total_);

  flush_link(tr.link, pl, high_water_ - options_.reorder_horizon);
}

void LinkTracker::flush_link(LinkId link, PerLink& pl, TimePoint up_to) {
  const auto greater = [](const PendingTransition& a,
                          const PendingTransition& b) { return b < a; };
  while (!pl.pending.empty() && pl.pending.front().time <= up_to) {
    std::pop_heap(pl.pending.begin(), pl.pending.end(), greater);
    const PendingTransition tr = pl.pending.back();
    pl.pending.pop_back();
    --pending_total_;
    apply(link, pl, tr);
  }
}

void LinkTracker::apply(LinkId link, PerLink& pl,
                        const PendingTransition& tr) {
  analysis::LinkWalker walker(link, options_.reconstruct, walker_counters_,
                              pl.held, ambiguous_scratch_, pl.walker);
  walker.feed(tr.time, tr.dir);
  pl.stats.state = pl.walker.state;
  pl.stats.last_transition = tr.time;

  for (const analysis::AmbiguousSegment& seg : ambiguous_scratch_) {
    if (on_ambiguous) on_ambiguous(seg);
  }
  ambiguous_scratch_.clear();

  // Only the newest failure can be retracted (kDrop double-UP); everything
  // older is final and leaves the tracker now.
  const std::size_t keep =
      options_.reconstruct.policy == analysis::AmbiguityPolicy::kDrop ? 1 : 0;
  release(link, pl, keep);

  counters_.double_downs = walker_counters_.double_downs;
  counters_.double_ups = walker_counters_.double_ups;
  counters_.merged_duplicates = walker_counters_.merged_duplicates;
  counters_.unterminated = walker_counters_.unterminated;
}

void LinkTracker::release(LinkId link, PerLink& pl, std::size_t keep) {
  while (pl.held.size() > keep) {
    analysis::Failure f = pl.held.front();
    pl.held.erase(pl.held.begin());
    f.source = options_.source;

    ++pl.stats.failures;
    pl.stats.downtime += f.duration();
    total_downtime_ += f.duration();
    ++counters_.failures_released;
    tracker_metrics().failures.inc();

    // Sliding-window flap detection: extend the current run while gaps stay
    // within kFlapMaxGap (released failures arrive begin-ordered per link).
    if (pl.run_count > 0 &&
        analysis::extends_flap_run(pl.run_last_end, f.span.begin)) {
      ++pl.run_count;
      pl.run_last_end = f.span.end;
    } else {
      close_run(link, pl);
      pl.run_count = 1;
      pl.run_start = f.span.begin;
      pl.run_last_end = f.span.end;
    }

    if (on_failure) on_failure(f);
  }
}

void LinkTracker::close_run(LinkId link, PerLink& pl) {
  if (pl.run_count >= analysis::kFlapMinFailures) {
    analysis::FlapEpisode ep;
    ep.link = link;
    ep.failure_count = pl.run_count;
    ep.span = TimeRange{pl.run_start, pl.run_last_end};
    ++pl.stats.flap_episodes;
    pl.stats.failures_in_episodes += pl.run_count;
    ++counters_.flap_episodes;
    tracker_metrics().episodes.inc();
    if (on_flap_episode) on_flap_episode(ep);
  }
  pl.run_count = 0;
}

void LinkTracker::poll() {
  if (!has_high_water_) return;
  const TimePoint up_to = high_water_ - options_.reorder_horizon;
  for (auto& [link, pl] : links_) flush_link(link, pl, up_to);
}

void LinkTracker::finish() {
  if (finished_) return;
  for (auto& [link, pl] : links_) {
    flush_link(link, pl, time_max());
    analysis::LinkWalker walker(link, options_.reconstruct, walker_counters_,
                                pl.held, ambiguous_scratch_, pl.walker);
    walker.finish();
    release(link, pl, 0);
    close_run(link, pl);
  }
  counters_.double_downs = walker_counters_.double_downs;
  counters_.double_ups = walker_counters_.double_ups;
  counters_.merged_duplicates = walker_counters_.merged_duplicates;
  counters_.unterminated = walker_counters_.unterminated;
  finished_ = true;
}

std::vector<LinkRunningStats> LinkTracker::link_stats() const {
  std::vector<LinkRunningStats> out;
  out.reserve(links_.size());
  for (const auto& [link, pl] : links_) out.push_back(pl.stats);
  return out;
}

}  // namespace netfail::stream
