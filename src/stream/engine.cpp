#include "src/stream/engine.hpp"

#include "src/common/assert.hpp"
#include "src/common/metrics.hpp"

namespace netfail::stream {
namespace {

struct EngineMetrics {
  metrics::Counter& events = metrics::global().counter("stream.engine.events");
  metrics::Counter& syslog_events =
      metrics::global().counter("stream.engine.syslog_events");
  metrics::Counter& lsp_events =
      metrics::global().counter("stream.engine.lsp_events");
};

// Namespace-scope so the per-event hot path carries no static-init guard.
EngineMetrics g_engine_metrics;

EngineMetrics& engine_metrics() { return g_engine_metrics; }

TrackerOptions tracker_options_for(const EngineOptions& options,
                                   analysis::Source source) {
  TrackerOptions t = options.tracker;
  t.source = source;
  return t;
}

}  // namespace

StreamEngine::StreamEngine(const LinkCensus& census, EngineOptions options)
    : census_(&census),
      options_(options),
      isis_extractor_(&census),
      isis_tracker_(tracker_options_for(options, analysis::Source::kIsis)),
      syslog_tracker_(tracker_options_for(options, analysis::Source::kSyslog)),
      detector_(options.detect) {}

void StreamEngine::feed(const StreamEvent& ev) {
  if (ev.kind() == EventKind::kSyslogLine) {
    feed_syslog(ev.line());
  } else {
    feed_lsp(ev.lsp());
  }
}

void StreamEngine::feed_syslog(const syslog::ReceivedLine& rec) {
  ++events_;
  ++syslog_events_;
  engine_metrics().events.inc();
  engine_metrics().syslog_events.inc();
  if (rec.received_at > high_water_) high_water_ = rec.received_at;

  const std::optional<syslog::SyslogTransition> tr =
      syslog::extract_line(rec, *census_, years_, syslog_stats_);
  if (!tr) return;
  // Partitioned: a routed line should always resolve to an owned link (the
  // dispatcher and the extractor share the census lookup); the filter is
  // the correctness guard that keeps per-link state disjoint regardless of
  // how the line reached us.
  if (!owns_link(tr->link)) return;
  // The detector sees every extracted transition, media class included —
  // the template-frequency counters cover all tracked message shapes.
  if (detector_.enabled()) detector_.observe_syslog(*tr, rec.received_at);
  // Same filter as reconstruct_from_syslog: adjacency-class messages on
  // census-resolved links.
  if (tr->cls != syslog::MessageClass::kIsisAdjacency) return;
  if (!tr->link.valid()) return;
  syslog_tracker_.ingest(
      analysis::RawTransition{tr->link, tr->time, tr->dir}, rec.received_at);
}

void StreamEngine::feed_lsp(const isis::LspRecord& rec) {
  scratch_.clear();
  isis_extractor_.feed(rec, scratch_);
  feed_isis(rec.received_at, scratch_);
}

void StreamEngine::feed_isis(TimePoint received_at,
                             std::span<const isis::IsisTransition> transitions) {
  ++events_;
  ++lsp_events_;
  engine_metrics().events.inc();
  engine_metrics().lsp_events.inc();
  if (received_at > high_water_) high_water_ = received_at;

  for (const isis::IsisTransition& tr : transitions) {
    // Same filter as reconstruct_from_isis: link-resolved IS-reachability
    // transitions only (multi-link pairs excluded).
    if (tr.field != isis::ReachabilityField::kIsReach) continue;
    if (!tr.link.valid() || tr.multilink) continue;
    // Partitioned: LSPs are broadcast (every shard runs the full extractor
    // for pair state), but only the owning shard analyzes the transition.
    if (!owns_link(tr.link)) continue;
    if (detector_.enabled()) detector_.observe_isis(tr.link, tr.time, tr.dir);
    isis_tracker_.ingest(analysis::RawTransition{tr.link, tr.time, tr.dir},
                         received_at);
  }
}

void StreamEngine::finish() {
  if (finished_) return;
  isis_tracker_.finish();
  syslog_tracker_.finish();
  detector_.finish();
  finished_ = true;
}

Checkpoint StreamEngine::checkpoint() const {
  Checkpoint cp;
  cp.state_ = std::make_shared<const StreamEngine>(*this);
  cp.high_water_ = high_water_;
  cp.events_ = events_;
  cp.alerts_ = detector_.alerts_emitted();
  return cp;
}

StreamEngine StreamEngine::resume(const Checkpoint& cp) {
  NETFAIL_ASSERT(cp.state_ != nullptr, "resume from an empty Checkpoint");
  return *cp.state_;
}

const StreamEngine& Checkpoint::state() const {
  NETFAIL_ASSERT(state_ != nullptr, "state() of an empty Checkpoint");
  return *state_;
}

}  // namespace netfail::stream
