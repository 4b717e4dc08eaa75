// The paper's tables, computed from a pipeline result and rendered as text.
// Tables 2-6 need only the source-agnostic AnalysisResult.
//
// Each table has a compute_*() producing plain numbers (tests assert on
// these) and a render_*() producing the printable table next to the paper's
// published values; render_paper() joins them all (bench_paper prints it).
#pragma once

#include <string>

#include "src/analysis/ambiguous.hpp"
#include "src/analysis/isolation.hpp"
#include "src/analysis/linkstats.hpp"
#include "src/analysis/pipeline.hpp"
#include "src/common/table.hpp"
#include "src/detect/scorer.hpp"
#include "src/stats/ks_test.hpp"

namespace netfail::analysis {

// ---- Table 1: dataset summary -------------------------------------------------
struct Table1Data {
  std::size_t core_routers = 0, cpe_routers = 0;
  std::size_t config_files = 0;
  std::size_t core_links = 0, cpe_links = 0;
  std::size_t syslog_messages = 0;
  std::uint64_t isis_updates = 0;
  TimeRange period;
};
Table1Data compute_table1(const PipelineResult& r);
std::string render_table1(const Table1Data& d);

// ---- Table 2: IS vs IP reachability --------------------------------------------
ReachabilityMatchTable compute_table2(const AnalysisResult& r);
std::string render_table2(const ReachabilityMatchTable& t);

// ---- Table 3: transitions vs syslog messages ------------------------------------
TransitionMatchCounts compute_table3(const AnalysisResult& r);
std::string render_table3(const TransitionMatchCounts& t);

// ---- Table 4: failures and downtime ----------------------------------------------
struct Table4Data {
  FailureMatchResult match;
};
Table4Data compute_table4(const AnalysisResult& r);
std::string render_table4(const Table4Data& d);

// ---- Table 5: per-link statistics --------------------------------------------------
struct Table5Data {
  LinkStatistics syslog;
  LinkStatistics isis;
};
Table5Data compute_table5(const AnalysisResult& r, const LinkCensus& census);
inline Table5Data compute_table5(const PipelineResult& r) {
  return compute_table5(r, r.census);
}
std::string render_table5(const Table5Data& d);

// ---- KS agreement (sect. 4.2) -------------------------------------------------------
struct KsData {
  stats::KsResult core_failures, core_duration, core_downtime;
  stats::KsResult cpe_failures, cpe_duration, cpe_downtime;
};
KsData compute_ks(const Table5Data& d);
std::string render_ks(const KsData& k);

// ---- Table 6: ambiguous state changes -------------------------------------------------
AmbiguityClassification compute_table6(const AnalysisResult& r);
std::string render_table6(const AmbiguityClassification& t);

// ---- Table 7: customer isolation ---------------------------------------------------------
struct Table7Data {
  IsolationResult isis;
  IsolationResult syslog;
  IsolationResult intersection;
  std::size_t syslog_only_events = 0;
  std::size_t isis_only_events = 0;
  /// Paper definition of the intersection row's event count: syslog events
  /// corroborated by IS-IS (1,060 - 58 = 1,002 in the paper).
  std::size_t intersection_events = 0;
};
Table7Data compute_table7(const PipelineResult& r);
std::string render_table7(const Table7Data& d);

// ---- The comparison report `netfail analyze` prints ------------------------------
/// Tables 2-4, the long-failure verification line, Table 5, KS and Table 6,
/// computed on concurrent tasks and joined in that order; equal to
/// rendering each compute_table*() in turn.
std::string render_comparison(const AnalysisResult& r,
                              const LinkCensus& census);

// ---- Figure 1: CPE cumulative distributions ------------------------------------------------
std::string render_figure1(const Table5Data& d);

// ---- The paper artifact ------------------------------------------------------------------
/// Everything the paper reports for one run, each section followed by a
/// blank line: Tables 1-7 with their notes (false-positive anatomy,
/// ambiguous link-time, isolation disagreements), Figure 1, the sect. 3.4
/// matching-window sweep, the sect. 4.3 repair strategies and the sect. 4.2
/// KS tests. tests/golden/cenic_paper.txt holds the CENIC scenario's.
std::string render_paper(const PipelineResult& r);

// ---- Detection scores (not in the paper; scores netfail::detect against ---------------------
// ---- the simulator's injected ground truth) -------------------------------------------------
std::string render_detection_scores(const detect::ScoreReport& r);

}  // namespace netfail::analysis
