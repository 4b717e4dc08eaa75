#include "src/stream/merge.hpp"

#include <algorithm>
#include <charconv>

#include "src/common/assert.hpp"
#include "src/syslog/message.hpp"

namespace netfail::stream {
namespace {

template <typename T>
void append_all(std::vector<T>& out, const std::vector<T>& in) {
  out.insert(out.end(), in.begin(), in.end());
}

/// Canonical link order with per-shard (== per-link) order preserved.
template <typename T>
void sort_by_link(std::vector<T>& v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const T& a, const T& b) { return a.link < b.link; });
}

void accumulate(TrackerCounters& out, const TrackerCounters& in) {
  out.transitions_ingested += in.transitions_ingested;
  out.failures_released += in.failures_released;
  out.flap_episodes += in.flap_episodes;
  out.pending_peak = std::max(out.pending_peak, in.pending_peak);
  out.double_downs += in.double_downs;
  out.double_ups += in.double_ups;
  out.merged_duplicates += in.merged_duplicates;
  out.unterminated += in.unterminated;
}

bool same_isis_stats(const isis::ExtractionStats& a,
                     const isis::ExtractionStats& b) {
  return a.lsps_processed == b.lsps_processed &&
         a.checksum_failures == b.checksum_failures &&
         a.parse_failures == b.parse_failures && a.stale_lsps == b.stale_lsps &&
         a.purges == b.purges && a.unknown_host_pairs == b.unknown_host_pairs &&
         a.unknown_prefixes == b.unknown_prefixes &&
         a.multilink_transitions == b.multilink_transitions;
}

void put(std::string& out, std::string_view s) { out.append(s); }
void put_u64(std::string& out, std::uint64_t v) {
  out.append(std::to_string(v));
}
void put_i64(std::string& out, std::int64_t v) {
  out.append(std::to_string(v));
}
void put_f(std::string& out, double v) {
  // Shortest round-trippable form via to_chars: locale-independent (the
  // digest is compared across processes and pinned in golden files, and
  // std::to_string's decimal separator follows the C locale) and lossless
  // (fixed 6 decimals would collapse nearby alert scores).
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  NETFAIL_ASSERT(r.ec == std::errc(), "double render overflow");
  out.append(buf, r.ptr);
}
void put_time(std::string& out, TimePoint t) {
  put_i64(out, t.unix_millis());
}
void put_link(std::string& out, LinkId link, const LinkCensus& census) {
  out.append(census.link(link).name);
}

void render_side(std::string& out, std::string_view label,
                 const MergedSide& side, const LinkCensus& census) {
  put(out, "[");
  put(out, label);
  put(out, "]\n");
  for (const analysis::Failure& f : side.failures) {
    put(out, "F ");
    put_link(out, f.link, census);
    put(out, " ");
    put_time(out, f.span.begin);
    put(out, " ");
    put_time(out, f.span.end);
    put(out, f.in_flap_episode ? " flap\n" : " -\n");
  }
  for (const analysis::AmbiguousSegment& a : side.ambiguous) {
    put(out, "A ");
    put_link(out, a.link, census);
    put(out, a.repeated_dir == LinkDirection::kDown ? " down " : " up ");
    put_time(out, a.first_message);
    put(out, " ");
    put_time(out, a.second_message);
    put(out, "\n");
  }
  for (const analysis::FlapEpisode& e : side.episodes) {
    put(out, "E ");
    put_link(out, e.link, census);
    put(out, " ");
    put_time(out, e.span.begin);
    put(out, " ");
    put_time(out, e.span.end);
    put(out, " ");
    put_u64(out, e.failure_count);
    put(out, "\n");
  }
  const TrackerCounters& c = side.counters;
  put(out, "counters ingested=");
  put_u64(out, c.transitions_ingested);
  put(out, " released=");
  put_u64(out, c.failures_released);
  put(out, " episodes=");
  put_u64(out, c.flap_episodes);
  put(out, " ddown=");
  put_u64(out, c.double_downs);
  put(out, " dup=");
  put_u64(out, c.double_ups);
  put(out, " merged=");
  put_u64(out, c.merged_duplicates);
  put(out, " unterminated=");
  put_u64(out, c.unterminated);
  put(out, " downtime_ms=");
  put_i64(out, side.total_downtime.total_millis());
  put(out, "\n");
}

}  // namespace

MergedRun merge_shard_runs(std::span<const ShardRun> shards) {
  NETFAIL_ASSERT(!shards.empty(), "merge of zero shards");
  MergedRun out;
  const StreamEngine* first = shards[0].engine;
  NETFAIL_ASSERT(first != nullptr, "ShardRun without an engine");
  out.isis_stats = first->isis_stats();
  out.lsp_events = first->lsp_events();

  for (const ShardRun& s : shards) {
    NETFAIL_ASSERT(s.engine != nullptr, "ShardRun without an engine");
    append_all(out.isis.failures, s.isis_failures);
    append_all(out.isis.ambiguous, s.isis_ambiguous);
    append_all(out.isis.episodes, s.isis_episodes);
    append_all(out.syslog.failures, s.syslog_failures);
    append_all(out.syslog.ambiguous, s.syslog_ambiguous);
    append_all(out.syslog.episodes, s.syslog_episodes);
    append_all(out.alerts, s.alerts);

    accumulate(out.isis.counters, s.engine->isis_tracker().counters());
    accumulate(out.syslog.counters, s.engine->syslog_tracker().counters());
    out.isis.total_downtime += s.engine->isis_tracker().total_downtime();
    out.syslog.total_downtime += s.engine->syslog_tracker().total_downtime();

    const syslog::SyslogExtractionStats& ss = s.engine->syslog_stats();
    out.syslog_stats.lines_seen += ss.lines_seen;
    out.syslog_stats.parse_failures += ss.parse_failures;
    out.syslog_stats.irrelevant_lines += ss.irrelevant_lines;
    out.syslog_stats.unresolved_links += ss.unresolved_links;

    out.syslog_events += s.engine->syslog_events();
    out.alerts_emitted += s.engine->detector().alerts_emitted();
    if (s.engine->high_water() > out.high_water) {
      out.high_water = s.engine->high_water();
    }

    // Broadcast invariants: every shard ran the full LSP stream through
    // its own extractor; divergence means the partition leaked.
    NETFAIL_ASSERT(s.engine->lsp_events() == out.lsp_events,
                   "sharded LSP broadcast diverged (event count)");
    NETFAIL_ASSERT(same_isis_stats(s.engine->isis_stats(), out.isis_stats),
                   "sharded LSP broadcast diverged (extraction stats)");
  }
  out.events = out.syslog_events + out.lsp_events;

  sort_by_link(out.isis.failures);
  sort_by_link(out.isis.ambiguous);
  sort_by_link(out.isis.episodes);
  sort_by_link(out.syslog.failures);
  sort_by_link(out.syslog.ambiguous);
  sort_by_link(out.syslog.episodes);
  sort_by_link(out.alerts);
  return out;
}

std::string render_digest(const MergedRun& run, const LinkCensus& census) {
  std::string out;
  out.reserve(256 + 64 * (run.isis.failures.size() +
                          run.syslog.failures.size() + run.alerts.size()));
  put(out, "events=");
  put_u64(out, run.events);
  put(out, " syslog=");
  put_u64(out, run.syslog_events);
  put(out, " lsp=");
  put_u64(out, run.lsp_events);
  put(out, " high_water=");
  put_time(out, run.high_water);
  put(out, "\n");
  put(out, "syslog_stats seen=");
  put_u64(out, run.syslog_stats.lines_seen);
  put(out, " parse_failures=");
  put_u64(out, run.syslog_stats.parse_failures);
  put(out, " irrelevant=");
  put_u64(out, run.syslog_stats.irrelevant_lines);
  put(out, " unresolved=");
  put_u64(out, run.syslog_stats.unresolved_links);
  put(out, "\n");
  put(out, "isis_stats lsps=");
  put_u64(out, run.isis_stats.lsps_processed);
  put(out, " checksum=");
  put_u64(out, run.isis_stats.checksum_failures);
  put(out, " parse=");
  put_u64(out, run.isis_stats.parse_failures);
  put(out, " stale=");
  put_u64(out, run.isis_stats.stale_lsps);
  put(out, " purges=");
  put_u64(out, run.isis_stats.purges);
  put(out, " unknown_pairs=");
  put_u64(out, run.isis_stats.unknown_host_pairs);
  put(out, " unknown_prefixes=");
  put_u64(out, run.isis_stats.unknown_prefixes);
  put(out, " multilink=");
  put_u64(out, run.isis_stats.multilink_transitions);
  put(out, "\n");

  render_side(out, "isis", run.isis, census);
  render_side(out, "syslog", run.syslog, census);

  put(out, "[alerts] emitted=");
  put_u64(out, run.alerts_emitted);
  put(out, "\n");
  for (const detect::LinkAlert& a : run.alerts) {
    put(out, "D ");
    put_link(out, a.link, census);
    put(out, " ");
    put_time(out, a.time);
    put(out, " ");
    put(out, detect::alert_kind_name(a.kind));
    put(out, " ");
    put_f(out, a.score);
    put(out, " ");
    put(out, a.template_id.valid() ? a.template_id.view() : "-");
    put(out, "\n");
  }
  return out;
}

}  // namespace netfail::stream
