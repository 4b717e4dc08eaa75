// The verbs' sequences of public calls, re-run in-process under the span
// tracer. Each follows its `netfail` subcommand call for call (same
// arguments, same order), so that with the tracer off the output is the
// verb's output byte for byte; run.py checks that it is.
#include <optional>

#include "harness.hpp"
#include "src/analysis/ambiguous.hpp"
#include "src/analysis/flaps.hpp"
#include "src/analysis/isolation.hpp"
#include "src/analysis/linkstats.hpp"
#include "src/analysis/match.hpp"
#include "src/analysis/reconstruct.hpp"
#include "src/analysis/sanitize.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/strfmt.hpp"
#include "src/isis/extract.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/merge.hpp"
#include "src/svc/export.hpp"
#include "src/syslog/extract.hpp"

namespace nfbench {

using namespace netfail;

namespace {

analysis::ReconstructOptions assume_up(const Bundle& b) {
  analysis::ReconstructOptions recon;
  recon.period = b.period;
  recon.policy = analysis::AmbiguityPolicy::kAssumeUp;
  return recon;
}

ReconCounts counts_of(analysis::Reconstruction& r) {
  ReconCounts c;
  c.failures = r.failures.size();
  c.double_downs = r.double_downs;
  c.double_ups = r.double_ups;
  c.merged = r.merged_duplicates;
  c.unterminated = r.unterminated;
  c.flap_episodes = analysis::detect_flaps(r.failures).episodes.size();
  return c;
}

}  // namespace

std::pair<ReconCounts, ReconCounts> batch_counts(const Bundle& b) {
  const isis::IsisExtraction isis_ex =
      isis::extract_transitions(b.records, b.census);
  const syslog::SyslogExtraction syslog_ex =
      syslog::extract_transitions(b.collector, b.census);
  analysis::Reconstruction isis_recon =
      analysis::reconstruct_from_isis(isis_ex.is_reach, assume_up(b));
  analysis::Reconstruction syslog_recon =
      analysis::reconstruct_from_syslog(syslog_ex.transitions, assume_up(b));
  return {counts_of(isis_recon), counts_of(syslog_recon)};
}

std::string analyze_sequence(const Bundle& b, Tracer& t) {
  const isis::IsisExtraction isis_ex = [&] {
    SpanScope s(t, "isis.extract");
    return isis::extract_transitions(b.records, b.census);
  }();
  const syslog::SyslogExtraction syslog_ex = [&] {
    SpanScope s(t, "syslog.extract");
    return syslog::extract_transitions(b.collector, b.census);
  }();
  t.count("isis.lsps_decoded",
          static_cast<double>(isis_ex.stats.lsps_processed));
  t.count("syslog.lines", static_cast<double>(syslog_ex.stats.lines_seen));
  t.count("syslog.parse_failures",
          static_cast<double>(syslog_ex.stats.parse_failures));

  std::optional<analysis::Reconstruction> isis_recon, syslog_recon;
  {
    SpanScope s(t, "analysis.reconstruct");
    isis_recon = analysis::reconstruct_from_isis(isis_ex.is_reach, assume_up(b));
    syslog_recon =
        analysis::reconstruct_from_syslog(syslog_ex.transitions, assume_up(b));
  }
  analysis::SanitizationReport long_report;
  {
    SpanScope s(t, "analysis.sanitize");
    (void)analysis::remove_listener_gap_failures(isis_recon->failures, b.gaps);
    (void)analysis::remove_listener_gap_failures(syslog_recon->failures,
                                                 b.gaps);
    long_report = analysis::verify_long_failures(syslog_recon->failures,
                                                 b.census, b.tickets);
  }
  std::optional<analysis::FlapAnalysis> isis_flaps;
  {
    SpanScope s(t, "analysis.flaps");
    isis_flaps = analysis::detect_flaps(isis_recon->failures);
    (void)analysis::detect_flaps(syslog_recon->failures);
  }
  std::optional<analysis::ReachabilityMatchTable> t2;
  std::optional<analysis::TransitionMatchCounts> t3;
  analysis::Table4Data t4;
  std::optional<analysis::AmbiguityClassification> t6;
  {
    SpanScope s(t, "analysis.match");
    t2 = analysis::match_reachability(syslog_ex.transitions, isis_ex.is_reach,
                                      isis_ex.ip_reach, {});
    t3 = analysis::match_transitions(isis_ex.is_reach, syslog_ex.transitions,
                                     isis_flaps->flap_ranges, {});
    t4.match = analysis::match_failures(isis_recon->failures,
                                        syslog_recon->failures, {});
    t6 = analysis::classify_ambiguous(syslog_recon->ambiguous,
                                      isis_recon->failures, isis_ex.is_reach,
                                      {});
  }
  analysis::Table5Data t5;
  std::optional<analysis::KsData> ks;
  {
    SpanScope s(t, "analysis.linkstats");
    t5.syslog = analysis::compute_link_statistics(syslog_recon->failures,
                                                  b.census, b.period);
    t5.isis = analysis::compute_link_statistics(isis_recon->failures, b.census,
                                                b.period);
    ks = analysis::compute_ks(t5);
  }
  SpanScope s(t, "analysis.render");
  std::string out;
  out += analysis::render_table2(*t2) + "\n";
  out += analysis::render_table3(*t3) + "\n";
  out += analysis::render_table4(t4) + "\n";
  out += strformat(
      "Long-failure verification removed %zu failures (%.0f h spurious)\n\n",
      long_report.long_failures_removed,
      long_report.spurious_hours_removed.hours_f());
  out += analysis::render_table5(t5) + "\n";
  out += analysis::render_ks(*ks) + "\n";
  out += analysis::render_table6(*t6) + "\n";
  return out;
}

std::string export_sequence(const Bundle& b, Tracer& t) {
  const isis::IsisExtraction isis_ex = [&] {
    SpanScope s(t, "isis.extract");
    return isis::extract_transitions(b.records, b.census);
  }();
  const syslog::SyslogExtraction syslog_ex = [&] {
    SpanScope s(t, "syslog.extract");
    return syslog::extract_transitions(b.collector, b.census);
  }();
  std::optional<analysis::Reconstruction> isis_recon, syslog_recon;
  {
    SpanScope s(t, "analysis.reconstruct");
    isis_recon = analysis::reconstruct_from_isis(isis_ex.is_reach, assume_up(b));
    syslog_recon =
        analysis::reconstruct_from_syslog(syslog_ex.transitions, assume_up(b));
  }
  std::optional<analysis::FlapAnalysis> isis_flaps, syslog_flaps;
  {
    SpanScope s(t, "analysis.flaps");
    isis_flaps = analysis::detect_flaps(isis_recon->failures);
    syslog_flaps = analysis::detect_flaps(syslog_recon->failures);
  }
  SpanScope s(t, "svc.export_render");
  svc::ExportInputs inputs;
  inputs.census = &b.census;
  inputs.failures = std::move(syslog_recon->failures);
  inputs.failures.insert(inputs.failures.end(), isis_recon->failures.begin(),
                         isis_recon->failures.end());
  inputs.syslog_episodes = syslog_flaps->episodes;
  inputs.isis_episodes = isis_flaps->episodes;
  inputs.transitions = syslog_ex.transitions;
  svc::ExportOptions options;
  options.anonymize = true;
  return svc::render_export(inputs, options);
}

void stream_sequence(const Bundle& b, Tracer& t, bool detect) {
  stream::EngineOptions options;
  options.tracker.reconstruct.period = b.period;
  options.detect.enabled = detect;
  std::optional<stream::StreamEngine> engine;
  std::optional<stream::EventMux> mux;
  {
    SpanScope s(t, "stream.init");
    engine.emplace(b.census, options);
    mux.emplace(
        stream::EventMux::over_vectors(b.collector.lines(), b.records));
  }
  {
    SpanScope s(t, "stream.feed");
    const std::uint64_t allocs0 = allocs_this_thread();
    if (t.enabled()) {
      std::int64_t syslog_ns = 0, lsp_ns = 0;
      while (std::optional<stream::StreamEvent> ev = mux->next()) {
        const std::int64_t t0 = now_ns();
        engine->feed(*ev);
        const std::int64_t dt = now_ns() - t0;
        (ev->kind() == stream::EventKind::kSyslogLine ? syslog_ns : lsp_ns) +=
            dt;
      }
      t.count("stream.feed_syslog_ms", static_cast<double>(syslog_ns) / 1e6);
      t.count("stream.feed_lsp_ms", static_cast<double>(lsp_ns) / 1e6);
      t.count("stream.allocs",
              static_cast<double>(allocs_this_thread() - allocs0));
    } else {
      while (std::optional<stream::StreamEvent> ev = mux->next()) {
        engine->feed(*ev);
      }
    }
  }
  {
    SpanScope s(t, "stream.finish");
    engine->finish();
  }
  t.count("stream.events", static_cast<double>(engine->events_ingested()));
  t.count("stream.pending_peak",
          static_cast<double>(engine->isis_tracker().counters().pending_peak +
                              engine->syslog_tracker().counters().pending_peak));
}

std::string table7_sequence(const Bundle& b, Tracer& t) {
  // compute_table7's calls, over the bundle instead of a simulation.
  const isis::IsisExtraction isis_ex = [&] {
    SpanScope s(t, "isis.extract");
    return isis::extract_transitions(b.records, b.census);
  }();
  const syslog::SyslogExtraction syslog_ex = [&] {
    SpanScope s(t, "syslog.extract");
    return syslog::extract_transitions(b.collector, b.census);
  }();
  std::optional<analysis::Reconstruction> isis_recon, state_recon;
  {
    SpanScope s(t, "analysis.reconstruct");
    isis_recon = analysis::reconstruct_from_isis(isis_ex.is_reach, assume_up(b));
    analysis::ReconstructOptions hold = assume_up(b);
    hold.policy = analysis::AmbiguityPolicy::kHoldState;
    state_recon =
        analysis::reconstruct_from_syslog(syslog_ex.transitions, hold);
  }
  {
    SpanScope s(t, "analysis.sanitize");
    (void)analysis::remove_listener_gap_failures(isis_recon->failures, b.gaps);
    (void)analysis::remove_listener_gap_failures(state_recon->failures, b.gaps);
    (void)analysis::verify_long_failures(state_recon->failures, b.census,
                                         b.tickets);
  }
  analysis::Table7Data d;
  {
    SpanScope s(t, "analysis.isolation");
    const analysis::PairDowntime isis_pairs = analysis::pair_downtime_from_isis(
        b.census, isis_recon->failures, isis_ex.is_reach, b.period);
    const analysis::PairDowntime syslog_pairs =
        analysis::pair_downtime_from_failures(b.census, state_recon->failures);
    d.isis = analysis::compute_isolation(b.census, isis_pairs, b.period);
    d.syslog = analysis::compute_isolation(b.census, syslog_pairs, b.period);
    d.intersection = analysis::intersect_isolation(d.isis, d.syslog);
    d.syslog_only_events = analysis::unmatched_events(d.syslog, d.isis);
    d.isis_only_events = analysis::unmatched_events(d.isis, d.syslog);
    d.intersection_events = d.syslog.events.size() - d.syslog_only_events;
  }
  SpanScope s(t, "analysis.render");
  return analysis::render_table7(d);
}

void collect_into(stream::StreamEngine& e, stream::ShardRun& run) {
  e.isis_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.isis_failures.push_back(f);
  };
  e.syslog_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.syslog_failures.push_back(f);
  };
  e.isis_tracker().on_ambiguous = [&run](const analysis::AmbiguousSegment& a) {
    run.isis_ambiguous.push_back(a);
  };
  e.syslog_tracker().on_ambiguous =
      [&run](const analysis::AmbiguousSegment& a) {
        run.syslog_ambiguous.push_back(a);
      };
  e.isis_tracker().on_flap_episode = [&run](const analysis::FlapEpisode& ep) {
    run.isis_episodes.push_back(ep);
  };
  e.syslog_tracker().on_flap_episode =
      [&run](const analysis::FlapEpisode& ep) {
        run.syslog_episodes.push_back(ep);
      };
}

std::string serial_digest(const Bundle& b) {
  stream::EngineOptions options;
  options.tracker.reconstruct.period = b.period;
  options.detect.enabled = true;
  stream::StreamEngine engine(b.census, options);
  stream::ShardRun run;
  collect_into(engine, run);
  stream::EventMux mux =
      stream::EventMux::over_vectors(b.collector.lines(), b.records);
  while (std::optional<stream::StreamEvent> ev = mux.next()) engine.feed(*ev);
  engine.finish();
  run.alerts = engine.detector().sink().snapshot();
  run.engine = &engine;
  const stream::ShardRun runs[] = {std::move(run)};
  return stream::render_digest(stream::merge_shard_runs(runs), b.census);
}

}  // namespace nfbench
