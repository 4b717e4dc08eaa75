// Structural unit tests for the table computations: relations that must
// hold for ANY pipeline run, checked on a small fast scenario.
#include <gtest/gtest.h>

#include <tuple>

#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/strfmt.hpp"

namespace netfail::analysis {
namespace {

class TablesTest : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult r = [] {
      PipelineOptions options;
      options.scenario = sim::test_scenario(77);
      return run_pipeline(options);
    }();
    return r;
  }
};

TEST_F(TablesTest, Table1CountsConsistent) {
  const Table1Data d = compute_table1(result());
  EXPECT_EQ(d.core_routers + d.cpe_routers,
            result().sim.topology.router_count());
  EXPECT_EQ(d.core_links + d.cpe_links, result().census.size());
  EXPECT_EQ(d.syslog_messages, result().sim.collector.size());
  EXPECT_GE(d.isis_updates, result().sim.listener.records().size());
  EXPECT_FALSE(d.period.empty());
}

TEST_F(TablesTest, Table2PercentagesBounded) {
  const ReachabilityMatchTable t = compute_table2(result());
  for (const double pct :
       {t.isis_down_vs_is, t.isis_down_vs_ip, t.isis_up_vs_is, t.isis_up_vs_ip,
        t.media_down_vs_is, t.media_down_vs_ip, t.media_up_vs_is,
        t.media_up_vs_ip}) {
    EXPECT_GE(pct, 0.0);
    EXPECT_LE(pct, 100.0);
  }
  EXPECT_GT(t.isis_down_messages + t.isis_up_messages, 0u);
  EXPECT_GT(t.media_down_messages + t.media_up_messages, 0u);
}

TEST_F(TablesTest, Table3PartitionsTransitions) {
  const TransitionMatchCounts t = compute_table3(result());
  // None/One/Both partition the link-resolved IS-reach transitions.
  std::size_t resolved = 0;
  for (const isis::IsisTransition& tr : result().isis.is_reach) {
    if (tr.link.valid() && !tr.multilink) ++resolved;
  }
  EXPECT_EQ(t.down_total() + t.up_total(), resolved);
  EXPECT_LE(t.down_none_in_flap, t.down_none);
  EXPECT_LE(t.up_none_in_flap, t.up_none);
}

TEST_F(TablesTest, Table4OverlapBounded) {
  const Table4Data d = compute_table4(result());
  EXPECT_LE(d.match.matched, d.match.isis_count);
  EXPECT_LE(d.match.matched, d.match.syslog_count);
  EXPECT_LE(d.match.overlap_downtime, d.match.isis_downtime);
  EXPECT_LE(d.match.overlap_downtime, d.match.syslog_downtime);
  EXPECT_EQ(d.match.matched + d.match.syslog_only.size(),
            d.match.syslog_count);
  EXPECT_EQ(d.match.matched + d.match.isis_only.size(), d.match.isis_count);
  EXPECT_LE(d.match.syslog_partial, d.match.syslog_only.size());
}

TEST_F(TablesTest, Table5SummariesOrdered) {
  const Table5Data d = compute_table5(result());
  for (const MetricSummaries* m :
       {&d.syslog.core_summary, &d.syslog.cpe_summary, &d.isis.core_summary,
        &d.isis.cpe_summary}) {
    for (const stats::Summary* s :
         {&m->failures_per_year, &m->duration_s, &m->tbf_hours,
          &m->downtime_hours_per_year}) {
      EXPECT_LE(s->min, s->median);
      EXPECT_LE(s->median, s->p95);
      EXPECT_LE(s->p95, s->max);
      EXPECT_GE(s->mean, s->min);
      EXPECT_LE(s->mean, s->max);
    }
  }
  // Sample vectors and summaries agree on counts.
  EXPECT_EQ(d.isis.core_summary.duration_s.count,
            d.isis.core.duration_s.size());
}

TEST_F(TablesTest, KsIsSymmetricInSources) {
  const Table5Data d = compute_table5(result());
  const KsData k = compute_ks(d);
  const stats::KsResult swapped = stats::ks_two_sample(
      d.isis.cpe.duration_s, d.syslog.cpe.duration_s);
  EXPECT_DOUBLE_EQ(k.cpe_duration.statistic, swapped.statistic);
}

TEST_F(TablesTest, Table6TotalsMatchSegments) {
  const AmbiguityClassification t = compute_table6(result());
  EXPECT_EQ(t.total_down() + t.total_up(),
            result().syslog_recon.ambiguous.size());
  EXPECT_LE(t.spurious_down_same_failure, t.spurious_down);
}

TEST_F(TablesTest, Table7IntersectionBounded) {
  const Table7Data d = compute_table7(result());
  EXPECT_LE(d.intersection.total_isolation, d.isis.total_isolation);
  EXPECT_LE(d.intersection.total_isolation, d.syslog.total_isolation);
  EXPECT_LE(d.intersection.sites_impacted, d.isis.sites_impacted);
  EXPECT_LE(d.intersection.sites_impacted, d.syslog.sites_impacted);
  EXPECT_LE(d.intersection_events, d.syslog.events.size());
  EXPECT_EQ(d.intersection_events + d.syslog_only_events,
            d.syslog.events.size());
}

TEST_F(TablesTest, RendersContainPaperReferences) {
  // Every rendered table cites the paper's values for side-by-side reading.
  EXPECT_NE(render_table2(compute_table2(result())).find("(paper)"),
            std::string::npos);
  EXPECT_NE(render_table3(compute_table3(result())).find("(paper)"),
            std::string::npos);
  EXPECT_NE(render_table4(compute_table4(result())).find("(paper)"),
            std::string::npos);
  EXPECT_NE(render_table7(compute_table7(result())).find("(paper)"),
            std::string::npos);
}

// ---- the analysis fan-out ----------------------------------------------------
// extract_and_reconstruct runs the two sources' extractions on two threads
// and render_comparison computes the tables on several; both must equal the
// one-thread composition of the same stages.

auto failure_key(const Failure& f) {
  return std::make_tuple(f.link, f.span.begin, f.span.end, f.source,
                         f.in_flap_episode);
}

void expect_same_reconstruction(const Reconstruction& got,
                                const Reconstruction& want) {
  EXPECT_EQ(got.double_downs, want.double_downs);
  EXPECT_EQ(got.double_ups, want.double_ups);
  EXPECT_EQ(got.merged_duplicates, want.merged_duplicates);
  EXPECT_EQ(got.unterminated, want.unterminated);
  EXPECT_EQ(got.ambiguous.size(), want.ambiguous.size());
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (std::size_t i = 0; i < want.failures.size(); ++i) {
    EXPECT_EQ(failure_key(got.failures[i]), failure_key(want.failures[i]))
        << "failure " << i;
  }
}

TEST(AnalysisFanOut, ExtractionEqualsEachSourceOnItsOwn) {
  // kAssumeDown reads the period, which extract_and_reconstruct fills in.
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto capture =
        ScenarioCache::global().capture(sim::test_scenario(seed));
    const CaptureView view = capture->view();
    const isis::IsisExtraction isis =
        isis::extract_transitions(view.lsp_records, view.census);
    const syslog::SyslogExtraction syslog =
        syslog::extract_transitions(view.collector, view.census);
    for (const AmbiguityPolicy policy :
         {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", policy "
                                      << static_cast<int>(policy));
      ReconstructOptions options;
      options.policy = policy;
      const Reconstructed both = extract_and_reconstruct(view, options);

      EXPECT_EQ(both.isis.is_reach.size(), isis.is_reach.size());
      EXPECT_EQ(both.isis.ip_reach.size(), isis.ip_reach.size());
      EXPECT_EQ(both.isis.stats.lsps_processed, isis.stats.lsps_processed);
      EXPECT_EQ(both.syslog.stats.lines_seen, syslog.stats.lines_seen);
      EXPECT_EQ(both.syslog.stats.unresolved_links,
                syslog.stats.unresolved_links);
      ASSERT_EQ(both.syslog.transitions.size(), syslog.transitions.size());
      for (std::size_t i = 0; i < syslog.transitions.size(); ++i) {
        EXPECT_EQ(both.syslog.transitions[i].time, syslog.transitions[i].time);
        EXPECT_EQ(both.syslog.transitions[i].link, syslog.transitions[i].link);
      }
      options.period = view.period;
      expect_same_reconstruction(
          both.isis_recon, reconstruct_from_isis(isis.is_reach, options));
      expect_same_reconstruction(
          both.syslog_recon,
          reconstruct_from_syslog(syslog.transitions, options));
    }
  }
}

TEST(AnalysisFanOut, ComparisonJoinsTheTablesInPaperOrder) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    const auto capture =
        ScenarioCache::global().capture(sim::test_scenario(seed));
    const AnalysisResult r = run_analysis(capture->view());
    const Table5Data t5 = compute_table5(r, capture->census);
    const std::string serial =
        render_table2(compute_table2(r)) + "\n" +
        render_table3(compute_table3(r)) + "\n" +
        render_table4(compute_table4(r)) + "\n" +
        strformat("Long-failure verification removed %zu failures (%.0f h "
                  "spurious)\n\n",
                  r.syslog_long_report.long_failures_removed,
                  r.syslog_long_report.spurious_hours_removed.hours_f()) +
        render_table5(t5) + "\n" + render_ks(compute_ks(t5)) + "\n" +
        render_table6(compute_table6(r)) + "\n";
    EXPECT_EQ(render_comparison(r, capture->census), serial);
  }
}

}  // namespace
}  // namespace netfail::analysis
