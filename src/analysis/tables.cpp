#include "src/analysis/tables.hpp"

#include <cmath>
#include <future>

#include "src/analysis/false_positives.hpp"
#include "src/analysis/isolation_diff.hpp"
#include "src/common/strfmt.hpp"
#include "src/stats/ecdf.hpp"

namespace netfail::analysis {
namespace {

std::string pct(std::size_t num, std::size_t den) {
  if (den == 0) return "n/a";
  return strformat("%.0f%%", 100.0 * static_cast<double>(num) /
                                 static_cast<double>(den));
}

}  // namespace

// ---- Table 1 -------------------------------------------------------------------

Table1Data compute_table1(const PipelineResult& r) {
  Table1Data d;
  d.core_routers = r.sim.topology.router_count(RouterClass::kCore);
  d.cpe_routers = r.sim.topology.router_count(RouterClass::kCpe);
  d.config_files = r.archive_files;
  d.core_links = r.census.count(RouterClass::kCore);
  d.cpe_links = r.census.count(RouterClass::kCpe);
  d.syslog_messages = r.sim.collector.size();
  d.isis_updates = r.sim.listener.total_updates();
  d.period = r.options_period;
  return d;
}

std::string render_table1(const Table1Data& d) {
  TextTable t("Table 1: Summary of data used in the study");
  t.set_header({"Parameter", "Value"});
  t.set_align(1, TextTable::Align::kLeft);
  const CivilTime b = to_civil(d.period.begin);
  const CivilTime e = to_civil(d.period.end);
  t.add_row({"Period", strformat("%s %d, %d - %s %d, %d", month_abbrev(b.month),
                                 b.day, b.year, month_abbrev(e.month), e.day,
                                 e.year)});
  t.add_row({"Routers", strformat("%zu Core and %zu CPE", d.core_routers,
                                  d.cpe_routers)});
  t.add_row({"Router Config Files", with_commas(static_cast<std::int64_t>(
                                        d.config_files))});
  t.add_row({"IS-IS links",
             strformat("%zu Core and %zu CPE", d.core_links, d.cpe_links)});
  t.add_row({"Syslog messages",
             with_commas(static_cast<std::int64_t>(d.syslog_messages))});
  t.add_row({"IS-IS updates",
             with_commas(static_cast<std::int64_t>(d.isis_updates))});
  return t.render();
}

// ---- Table 2 -------------------------------------------------------------------

ReachabilityMatchTable compute_table2(const AnalysisResult& r) {
  return match_reachability(r.syslog.transitions, r.isis.is_reach,
                            r.isis.ip_reach, MatchOptions{});
}

std::string render_table2(const ReachabilityMatchTable& t) {
  TextTable tt(
      "Table 2: State transitions matching syslog messages by IS or IP\n"
      "reachability of IS-IS LSP messages");
  tt.set_header({"Syslog Type", "IS reachability", "IP reachability", "(paper)"});
  tt.set_align(3, TextTable::Align::kLeft);
  tt.add_row({"IS-IS Down", strformat("%.0f%%", t.isis_down_vs_is),
              strformat("%.0f%%", t.isis_down_vs_ip), "82% / 25%"});
  tt.add_row({"IS-IS Up", strformat("%.0f%%", t.isis_up_vs_is),
              strformat("%.0f%%", t.isis_up_vs_ip), "85% / 23%"});
  tt.add_row({"physical media Down", strformat("%.0f%%", t.media_down_vs_is),
              strformat("%.0f%%", t.media_down_vs_ip), "31% / 52%"});
  tt.add_row({"physical media Up", strformat("%.0f%%", t.media_up_vs_is),
              strformat("%.0f%%", t.media_up_vs_ip), "34% / 53%"});
  return tt.render();
}

// ---- Table 3 -------------------------------------------------------------------

TransitionMatchCounts compute_table3(const AnalysisResult& r) {
  return match_transitions(r.isis.is_reach, r.syslog.transitions,
                           r.isis_flaps.flap_ranges, MatchOptions{});
}

std::string render_table3(const TransitionMatchCounts& t) {
  TextTable tt(
      "Table 3: IS-IS state transitions by type and number of matching\n"
      "router syslog messages");
  tt.set_header({"IS-IS transition", "None", "One", "Both"});
  tt.add_row({"DOWN",
              strformat("%zu (%s)", t.down_none, pct(t.down_none, t.down_total()).c_str()),
              strformat("%zu (%s)", t.down_one, pct(t.down_one, t.down_total()).c_str()),
              strformat("%zu (%s)", t.down_both, pct(t.down_both, t.down_total()).c_str())});
  tt.add_row({"UP",
              strformat("%zu (%s)", t.up_none, pct(t.up_none, t.up_total()).c_str()),
              strformat("%zu (%s)", t.up_one, pct(t.up_one, t.up_total()).c_str()),
              strformat("%zu (%s)", t.up_both, pct(t.up_both, t.up_total()).c_str())});
  tt.add_rule();
  tt.add_row({"(paper) DOWN", "2,022 (18%)", "4,512 (39%)", "4,962 (43%)"});
  tt.add_row({"(paper) UP", "1,696 (15%)", "5,432 (48%)", "4,168 (37%)"});
  std::string out = tt.render();
  out += strformat(
      "\nUnmatched transitions occurring during flapping: DOWN %s, UP %s "
      "(paper: 67%% / 61%%)\n",
      pct(t.down_none_in_flap, t.down_none).c_str(),
      pct(t.up_none_in_flap, t.up_none).c_str());
  return out;
}

// ---- Table 4 -------------------------------------------------------------------

Table4Data compute_table4(const AnalysisResult& r) {
  Table4Data d;
  d.match = match_failures(r.isis_recon.failures, r.syslog_recon.failures,
                           MatchOptions{});
  return d;
}

std::string render_table4(const Table4Data& d) {
  TextTable tt(
      "Table 4: Number and hours of downtime as reported by IS-IS and syslog\n"
      "after basic data cleaning");
  tt.set_header({"", "IS-IS", "Syslog", "Overlap"});
  tt.add_row({"Failure Count", with_commas(static_cast<std::int64_t>(d.match.isis_count)),
              with_commas(static_cast<std::int64_t>(d.match.syslog_count)),
              with_commas(static_cast<std::int64_t>(d.match.matched))});
  tt.add_row({"Downtime (Hours)",
              strformat("%.0f", d.match.isis_downtime.hours_f()),
              strformat("%.0f", d.match.syslog_downtime.hours_f()),
              strformat("%.0f", d.match.overlap_downtime.hours_f())});
  tt.add_rule();
  tt.add_row({"(paper) Failure Count", "11,213", "11,738", "9,298"});
  tt.add_row({"(paper) Downtime (Hours)", "3,648", "2,714", "2,331"});
  return tt.render();
}

// ---- Table 5 -------------------------------------------------------------------

Table5Data compute_table5(const AnalysisResult& r, const LinkCensus& census) {
  Table5Data d;
  d.syslog = compute_link_statistics(r.syslog_recon.failures, census,
                                     r.options_period);
  d.isis = compute_link_statistics(r.isis_recon.failures, census,
                                   r.options_period);
  return d;
}

std::string render_table5(const Table5Data& d) {
  TextTable tt(
      "Table 5: Statistics for syslog-inferred and IS-IS listener-reported\n"
      "failures (paper values in parentheses)");
  tt.set_header({"Statistic", "Core Syslog", "Core IS-IS", "CPE Syslog",
                 "CPE IS-IS"});
  auto row = [&tt](const char* name, double sc, double ic, double sp, double ip,
                   const char* paper) {
    tt.add_row({name, strformat("%.1f", sc), strformat("%.1f", ic),
                strformat("%.1f", sp), strformat("%.1f", ip)});
    tt.add_row({strformat("  (paper: %s)", paper), "", "", "", ""});
  };
  const MetricSummaries& sc = d.syslog.core_summary;
  const MetricSummaries& ic = d.isis.core_summary;
  const MetricSummaries& sp = d.syslog.cpe_summary;
  const MetricSummaries& ip = d.isis.cpe_summary;

  tt.add_row({"Annualized failures per link", "", "", "", ""});
  row("  Median", sc.failures_per_year.median, ic.failures_per_year.median,
      sp.failures_per_year.median, ip.failures_per_year.median,
      "5.7 / 6.6 / 11.3 / 12.3");
  row("  Average", sc.failures_per_year.mean, ic.failures_per_year.mean,
      sp.failures_per_year.mean, ip.failures_per_year.mean,
      "14.2 / 16.1 / 49.1 / 45.5");
  row("  95%", sc.failures_per_year.p95, ic.failures_per_year.p95,
      sp.failures_per_year.p95, ip.failures_per_year.p95,
      "46.2 / 46.2 / 249 / 253");
  tt.add_row({"Failure duration (seconds)", "", "", "", ""});
  row("  Median", sc.duration_s.median, ic.duration_s.median,
      sp.duration_s.median, ip.duration_s.median, "52 / 42 / 10 / 12");
  row("  Average", sc.duration_s.mean, ic.duration_s.mean, sp.duration_s.mean,
      ip.duration_s.mean, "1078 / 1527 / 814 / 1140");
  row("  95%", sc.duration_s.p95, ic.duration_s.p95, sp.duration_s.p95,
      ip.duration_s.p95, "6318 / 6683 / 665 / 825");
  tt.add_row({"Time between failures (hours)", "", "", "", ""});
  row("  Median", sc.tbf_hours.median, ic.tbf_hours.median,
      sp.tbf_hours.median, ip.tbf_hours.median, "0.2 / 0.2 / 0.01 / 0.03");
  row("  Average", sc.tbf_hours.mean, ic.tbf_hours.mean, sp.tbf_hours.mean,
      ip.tbf_hours.mean, "343 / 347 / 116 / 136");
  row("  95%", sc.tbf_hours.p95, ic.tbf_hours.p95, sp.tbf_hours.p95,
      ip.tbf_hours.p95, "2014 / 2147 / 673 / 845");
  tt.add_row({"Annualized link downtime (hours)", "", "", "", ""});
  row("  Median", sc.downtime_hours_per_year.median,
      ic.downtime_hours_per_year.median, sp.downtime_hours_per_year.median,
      ip.downtime_hours_per_year.median, "0.6 / 0.8 / 1.9 / 2.4");
  row("  Average", sc.downtime_hours_per_year.mean,
      ic.downtime_hours_per_year.mean, sp.downtime_hours_per_year.mean,
      ip.downtime_hours_per_year.mean, "4 / 7 / 11 / 14");
  row("  95%", sc.downtime_hours_per_year.p95, ic.downtime_hours_per_year.p95,
      sp.downtime_hours_per_year.p95, ip.downtime_hours_per_year.p95,
      "24 / 26 / 49 / 51");
  return tt.render();
}

// ---- KS agreement ----------------------------------------------------------------

KsData compute_ks(const Table5Data& d) {
  KsData k;
  k.core_failures = stats::ks_two_sample(d.syslog.core.failures_per_year,
                                         d.isis.core.failures_per_year);
  k.core_duration =
      stats::ks_two_sample(d.syslog.core.duration_s, d.isis.core.duration_s);
  k.core_downtime = stats::ks_two_sample(d.syslog.core.downtime_hours_per_year,
                                         d.isis.core.downtime_hours_per_year);
  k.cpe_failures = stats::ks_two_sample(d.syslog.cpe.failures_per_year,
                                        d.isis.cpe.failures_per_year);
  k.cpe_duration =
      stats::ks_two_sample(d.syslog.cpe.duration_s, d.isis.cpe.duration_s);
  k.cpe_downtime = stats::ks_two_sample(d.syslog.cpe.downtime_hours_per_year,
                                        d.isis.cpe.downtime_hours_per_year);
  return k;
}

std::string render_ks(const KsData& k) {
  TextTable tt(
      "Kolmogorov-Smirnov agreement, syslog vs IS-IS (sect. 4.2: consistent\n"
      "for failures per link and link downtime, not failure duration)");
  tt.set_header({"Metric", "D (core)", "p (core)", "D (CPE)", "p (CPE)",
                 "verdict (CPE)"});
  tt.set_align(5, TextTable::Align::kLeft);
  auto row = [&tt](const char* name, const stats::KsResult& core,
                   const stats::KsResult& cpe) {
    tt.add_row({name, strformat("%.3f", core.statistic),
                strformat("%.3g", core.p_value),
                strformat("%.3f", cpe.statistic), strformat("%.3g", cpe.p_value),
                cpe.consistent() ? "consistent" : "distinct"});
  };
  row("Failures per link", k.core_failures, k.cpe_failures);
  row("Failure duration", k.core_duration, k.cpe_duration);
  row("Link downtime", k.core_downtime, k.cpe_downtime);
  return tt.render();
}

// ---- Table 6 -------------------------------------------------------------------

AmbiguityClassification compute_table6(const AnalysisResult& r) {
  return classify_ambiguous(r.syslog_recon.ambiguous, r.isis_recon.failures,
                            r.isis.is_reach, MatchOptions{});
}

std::string render_table6(const AmbiguityClassification& t) {
  TextTable tt(
      "Table 6: Ambiguous state changes by cause and direction\n"
      "(paper: lost 194/174, spurious 240/28, unknown 27/0)");
  tt.set_header({"Cause", "Down", "Up"});
  tt.add_row({"Lost Message", std::to_string(t.lost_down),
              std::to_string(t.lost_up)});
  tt.add_row({"Spurious Retransmission", std::to_string(t.spurious_down),
              std::to_string(t.spurious_up)});
  tt.add_row({"Unknown", std::to_string(t.unknown_down),
              std::to_string(t.unknown_up)});
  tt.add_rule();
  tt.add_row({"Total", std::to_string(t.total_down()),
              std::to_string(t.total_up())});
  std::string out = tt.render();
  out += strformat(
      "\nSpurious downs re-reporting the same failure: %s (paper: 99%%)\n",
      pct(t.spurious_down_same_failure,
          t.spurious_down == 0 ? 1 : t.spurious_down)
          .c_str());
  return out;
}

// ---- Table 7 -------------------------------------------------------------------

Table7Data compute_table7(const PipelineResult& r) {
  Table7Data d;
  const PairDowntime isis_pairs = pair_downtime_from_isis(
      r.census, r.isis_recon.failures, r.isis.is_reach, r.options_period);
  // Isolation is a link-*state* question, so the syslog side uses the
  // paper's recommended hold-state policy (sect. 4.3) rather than the
  // ambiguity-excluding accounting baseline: a spurious mid-failure "Down"
  // must not cut an outage in half when deciding whether a customer was
  // cut off.
  const PairDowntime syslog_pairs = pair_downtime_from_failures(
      r.census, sanitized_syslog(r, AmbiguityPolicy::kHoldState).failures);
  d.isis = compute_isolation(r.census, isis_pairs, r.options_period);
  d.syslog = compute_isolation(r.census, syslog_pairs, r.options_period);
  d.intersection = intersect_isolation(d.isis, d.syslog);
  d.syslog_only_events = unmatched_events(d.syslog, d.isis);
  d.isis_only_events = unmatched_events(d.isis, d.syslog);
  d.intersection_events = d.syslog.events.size() - d.syslog_only_events;
  return d;
}

std::string render_table7(const Table7Data& d) {
  TextTable tt(
      "Table 7: Failures isolating at least one customer, as reconstructed\n"
      "from syslog and IS-IS");
  tt.set_header({"Data Source", "Isolating Events", "Sites Impacted",
                 "Downtime (days)"});
  auto row = [&tt](const char* name, std::size_t events,
                   const IsolationResult& r2) {
    tt.add_row({name, with_commas(static_cast<std::int64_t>(events)),
                std::to_string(r2.sites_impacted),
                strformat("%.1f", r2.total_isolation.days_f())});
  };
  row("IS-IS", d.isis.events.size(), d.isis);
  row("Syslog", d.syslog.events.size(), d.syslog);
  row("Intersection", d.intersection_events, d.intersection);
  tt.add_rule();
  tt.add_row({"(paper) IS-IS", "1,401", "74", "26.3"});
  tt.add_row({"(paper) Syslog", "1,060", "67", "22.3"});
  tt.add_row({"(paper) Intersection", "1,002", "66", "19.8"});
  std::string out = tt.render();
  out += strformat(
      "\nSyslog events unseen by IS-IS: %zu (paper: 58); IS-IS events missed "
      "by syslog: %zu (paper: 399)\n",
      d.syslog_only_events, d.isis_only_events);
  return out;
}

// ---- Comparison report ---------------------------------------------------------

std::string render_comparison(const AnalysisResult& r,
                              const LinkCensus& census) {
  // The tables read `r` and `census` and nothing else, so Tables 2, 3, 5
  // (with KS) and 6 are computed and rendered on tasks while Table 4 runs
  // here; the report joins them in the paper's order. What two tables
  // share is built once, here, before the tasks start: the IS-reach time
  // index (Tables 2 and 6) and the IS-IS downtime per link (Tables 4 and 6).
  const TransitionTimeIndex is_index(r.isis.is_reach);
  const LinkDowntime isis_down(r.isis_recon.failures);
  auto task = [](auto fn) { return std::async(std::launch::async, fn); };
  std::future<std::string> t2 = task([&] {
    return render_table2(match_reachability(r.syslog.transitions, is_index,
                                            r.isis.ip_reach, MatchOptions{}));
  });
  std::future<std::string> t3 =
      task([&] { return render_table3(compute_table3(r)); });
  std::future<std::string> t5 = task([&] {
    const Table5Data d = compute_table5(r, census);
    return render_table5(d) + "\n" + render_ks(compute_ks(d));
  });
  std::future<std::string> t6 = task([&] {
    return render_table6(classify_ambiguous(r.syslog_recon.ambiguous,
                                            r.isis_recon.failures, is_index,
                                            isis_down, MatchOptions{}));
  });
  Table4Data d4;
  d4.match = match_failures(r.isis_recon.failures, isis_down,
                            r.syslog_recon.failures, MatchOptions{});
  const std::string t4 = render_table4(d4);

  std::string out = t2.get() + "\n";
  out += t3.get() + "\n";
  out += t4 + "\n";
  out += strformat(
      "Long-failure verification removed %zu failures (%.0f h spurious)\n\n",
      r.syslog_long_report.long_failures_removed,
      r.syslog_long_report.spurious_hours_removed.hours_f());
  out += t5.get() + "\n";
  out += t6.get() + "\n";
  return out;
}

// ---- Figure 1 -------------------------------------------------------------------

std::string render_figure1(const Table5Data& d) {
  std::string out;
  const stats::Ecdf sys_dur(d.syslog.cpe.duration_s);
  const stats::Ecdf isis_dur(d.isis.cpe.duration_s);
  out += "Figure 1a: CPE failure duration CDF (seconds)\n";
  out += stats::Ecdf::ascii_plot(
      {{"Syslog", &sys_dur}, {"IS-IS", &isis_dur}}, 1.0, 1e5, 72, 18,
      "failure duration, s");
  out += "\nFigure 1b: CPE annualized link downtime CDF (hours/yr)\n";
  const stats::Ecdf sys_down(d.syslog.cpe.downtime_hours_per_year);
  const stats::Ecdf isis_down(d.isis.cpe.downtime_hours_per_year);
  out += stats::Ecdf::ascii_plot(
      {{"Syslog", &sys_down}, {"IS-IS", &isis_down}}, 0.01, 1e3, 72, 18,
      "downtime, h/yr");
  out += "\nFigure 1c: CPE time between failures CDF (hours)\n";
  const stats::Ecdf sys_tbf(d.syslog.cpe.tbf_hours);
  const stats::Ecdf isis_tbf(d.isis.cpe.tbf_hours);
  out += stats::Ecdf::ascii_plot(
      {{"Syslog", &sys_tbf}, {"IS-IS", &isis_tbf}}, 0.001, 1e4, 72, 18,
      "time between failures, h");
  return out;
}

// ---- The paper artifact ---------------------------------------------------------

namespace {

double percent(double num, double den) {
  return den > 0 ? 100.0 * num / den : 0.0;
}

// Table 4's notes: the syslog-only (false-positive) share, the long-failure
// verification and sect. 4.3's false-positive anatomy.
std::string render_false_positives(const AnalysisResult& r,
                                   const Table4Data& d) {
  std::string out = strformat(
      "\nSyslog-only (false-positive) failures: %zu of %zu (%.0f%%; paper: "
      "2,440 = 21%%),\nof which %zu partially overlap an IS-IS failure\n",
      d.match.syslog_only.size(), d.match.syslog_count,
      percent(static_cast<double>(d.match.syslog_only.size()),
              static_cast<double>(d.match.syslog_count)),
      d.match.syslog_partial);
  out += strformat(
      "Long-failure verification removed %zu failures totalling %.0f spurious "
      "hours (paper: ~6,000 h)\n",
      r.syslog_long_report.long_failures_removed,
      r.syslog_long_report.spurious_hours_removed.hours_f());
  const FalsePositiveBreakdown fp = analyze_false_positives(
      r.syslog_recon.failures, d.match, r.syslog_flaps.flap_ranges);
  out += strformat(
      "\nFalse-positive anatomy (sect. 4.3): %.0f%% are <= 10 s (paper: 83%%); "
      "the %zu long ones\ncarry %.0f%% of false downtime (paper: 94%%); %zu "
      "of the long ones fall in flapping\nepisodes (paper: all but 19)\n",
      100.0 * fp.short_fraction(), fp.long_count,
      100.0 * fp.long_downtime_fraction(), fp.long_in_flap);
  return out;
}

// Table 6's note: link-time spent in an ambiguous state, as a share of the
// period summed over every link.
std::string render_ambiguous_time(const AmbiguityClassification& t,
                                  const PipelineResult& r) {
  const double period_s =
      (r.options_period.end - r.options_period.begin).seconds_f();
  return strformat(
      "Ambiguous link-time: %.2f%% of the measurement period across links "
      "(paper: 7.8%% aggregate)\n",
      100.0 * t.ambiguous_time.seconds_f() /
          (period_s * static_cast<double>(r.census.size())));
}

// Sect. 4.4's anatomy of Table 7's disagreements.
std::string render_isolation_diff(const Table7Data& d) {
  const IsolationDiff syslog_diff = diff_isolation(d.syslog, d.isis);
  const IsolationDiff isis_diff = diff_isolation(d.isis, d.syslog);
  std::string out = strformat(
      "\nSyslog-only events: %zu with no IS-IS counterpart, %zu near-misses "
      "(paper: 12 / 46);\negregious matches (counterpart covers <10%%): %zu "
      "(paper: 2)\n",
      syslog_diff.no_counterpart, syslog_diff.partial_overlap,
      syslog_diff.egregious);
  out += strformat(
      "IS-IS-only events: %zu totalling %.1f days (paper: 399 events, 6.5 "
      "days)\n",
      isis_diff.unmatched_total, isis_diff.unmatched_downtime.days_f());
  return out;
}

// Sect. 3.4: the share of IS-IS failures and downtime matched at each window
// (the paper omits the figure; it chose 10 s at the knee).
std::string render_window_sweep(const AnalysisResult& r) {
  TextTable t(
      "Matching-window sweep: fraction of failures and downtime matched\n"
      "(paper: knee at 10 seconds; omitted figure of sect. 3.4)");
  t.set_header({"Window (s)", "Matched failures", "% of IS-IS", "Matched "
                "downtime (h)", "% of IS-IS downtime"});
  for (const int w : {1, 2, 3, 5, 8, 10, 15, 20, 30, 60, 120}) {
    MatchOptions opts;
    opts.window = Duration::seconds(w);
    const FailureMatchResult m =
        match_failures(r.isis_recon.failures, r.syslog_recon.failures, opts);
    Duration matched_downtime;
    for (const auto& [i, s] : m.pairs) {
      matched_downtime += r.isis_recon.failures[i].duration();
    }
    t.add_row({std::to_string(w), std::to_string(m.matched),
               strformat("%.1f%%", percent(static_cast<double>(m.matched),
                                           static_cast<double>(m.isis_count))),
               strformat("%.0f", matched_downtime.hours_f()),
               strformat("%.1f%%", percent(matched_downtime.hours_f(),
                                           m.isis_downtime.hours_f()))});
  }
  return t.render();
}

// Sect. 4.3: syslog downtime under each repair strategy for ambiguous state
// changes, sanitized like the main pipeline, against IS-IS's.
std::string render_repair_strategies(const PipelineResult& r) {
  const Duration isis_downtime = total_downtime(r.isis_recon.failures);
  TextTable t(
      "Repair strategies for ambiguous syslog state changes (sect. 4.3)\n"
      "IS-IS reference downtime: " +
      strformat("%.0f h", isis_downtime.hours_f()));
  t.set_header({"Policy", "Failures", "Downtime (h)", "Gap to IS-IS (h)"});
  double best_gap = -1;
  const char* best_policy = "";
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    const Reconstruction recon = sanitized_syslog(r, policy);
    const Duration downtime = total_downtime(recon.failures);
    const double gap_h = std::abs(downtime.hours_f() - isis_downtime.hours_f());
    if (best_gap < 0 || gap_h < best_gap) {
      best_gap = gap_h;
      best_policy = ambiguity_policy_name(policy);
    }
    t.add_row({ambiguity_policy_name(policy),
               std::to_string(recon.failures.size()),
               strformat("%.0f", downtime.hours_f()),
               strformat("%.0f", gap_h)});
  }
  return t.render() +
         strformat(
             "\nClosest to IS-IS: %s (paper: assuming the link remains in the "
             "previous state is best)\n",
             best_policy);
}

}  // namespace

std::string render_paper(const PipelineResult& r) {
  const Table4Data d4 = compute_table4(r);
  const AmbiguityClassification t6 = compute_table6(r);
  const Table5Data d5 = compute_table5(r);
  const Table7Data t7 = compute_table7(r);
  const std::string sections[] = {
      render_table1(compute_table1(r)) +
          "\n(paper: 60 Core + 175 CPE routers, 11,623 config files, 84 Core "
          "+ 215 CPE links,\n 47,371 syslog messages, 11,095,550 IS-IS "
          "updates)\n",
      render_table2(compute_table2(r)),
      render_table3(compute_table3(r)),
      render_table4(d4) + render_false_positives(r, d4),
      render_table5(d5),
      render_table6(t6) + render_ambiguous_time(t6, r),
      render_table7(t7) + render_isolation_diff(t7),
      render_figure1(d5),
      render_window_sweep(r),
      render_repair_strategies(r),
      render_ks(compute_ks(d5)),
  };
  std::string out;
  for (const std::string& s : sections) out += s + "\n";
  return out;
}

// ---- Detection scores ------------------------------------------------------------

namespace {

std::string slice_row(const detect::SliceScore& s) {
  const double r = s.considered == 0
                       ? 1.0
                       : static_cast<double>(s.detected) /
                             static_cast<double>(s.considered);
  return strformat("%llu / %llu (%.4f)",
                   static_cast<unsigned long long>(s.detected),
                   static_cast<unsigned long long>(s.considered), r);
}

}  // namespace

std::string render_detection_scores(const detect::ScoreReport& r) {
  TextTable tt("Online detection vs injected ground truth");
  tt.set_align(1, TextTable::Align::kLeft);
  tt.add_row({"Alerts",
              strformat("%llu (hard-down %llu, flap-cusum %llu, drift %llu)",
                        static_cast<unsigned long long>(r.alerts_total),
                        static_cast<unsigned long long>(r.alerts_hard_down),
                        static_cast<unsigned long long>(r.alerts_flap_cusum),
                        static_cast<unsigned long long>(
                            r.alerts_template_drift))});
  tt.add_row({"Precision",
              strformat("%.4f (%llu / %llu matched)", r.precision(),
                        static_cast<unsigned long long>(r.alerts_matched),
                        static_cast<unsigned long long>(r.alerts_total))});
  tt.add_row({"Recall",
              strformat("%.4f (%llu / %llu hard failures, %llu in listener "
                        "gaps excluded)",
                        r.recall(),
                        static_cast<unsigned long long>(r.failures_detected),
                        static_cast<unsigned long long>(r.failures_considered),
                        static_cast<unsigned long long>(r.failures_excluded))});
  tt.add_rule();
  tt.add_row({"Media failures", slice_row(r.media)});
  tt.add_row({"Protocol failures", slice_row(r.protocol)});
  tt.add_row({"Flap-episode failures", slice_row(r.flapping)});
  tt.add_row({"Ticketed outages",
              strformat("%s, %llu corroborated", slice_row(r.ticketed).c_str(),
                        static_cast<unsigned long long>(
                            r.tickets_corroborated))});
  tt.add_rule();
  tt.add_row({"Lead time",
              strformat("mean %.1f min, median %.1f min (%llu samples)",
                        r.lead_mean().seconds_f() / 60.0,
                        r.lead_median.seconds_f() / 60.0,
                        static_cast<unsigned long long>(r.lead_samples))});
  return tt.render();
}

}  // namespace netfail::analysis
