// Reproduces the matching-window sensitivity analysis (sect. 3.4): the paper
// chose a ten-second window because the fraction of matched downtime has a
// clear knee there (the figure itself was omitted from the paper for space).
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "src/common/strfmt.hpp"

namespace {

using namespace netfail;

void BM_MatchAtWindow(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  analysis::MatchOptions opts;
  opts.window = Duration::seconds(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::match_failures(
        r.isis_recon.failures, r.syslog_recon.failures, opts));
  }
}
BENCHMARK(BM_MatchAtWindow)->Arg(1)->Arg(10)->Arg(60)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace netfail;
  const analysis::PipelineResult& r = bench::cenic_pipeline();

  TextTable t(
      "Matching-window sweep: fraction of failures and downtime matched\n"
      "(paper: knee at 10 seconds; omitted figure of sect. 3.4)");
  t.set_header({"Window (s)", "Matched failures", "% of IS-IS", "Matched "
                "downtime (h)", "% of IS-IS downtime"});
  for (const int w : {1, 2, 3, 5, 8, 10, 15, 20, 30, 60, 120}) {
    analysis::MatchOptions opts;
    opts.window = Duration::seconds(w);
    const analysis::FailureMatchResult m = analysis::match_failures(
        r.isis_recon.failures, r.syslog_recon.failures, opts);
    // Downtime belonging to matched IS-IS failures.
    Duration matched_downtime;
    for (const auto& [i, s] : m.pairs) {
      matched_downtime += r.isis_recon.failures[i].duration();
    }
    t.add_row({std::to_string(w), std::to_string(m.matched),
               strformat("%.1f%%",
                         m.isis_count
                             ? 100.0 * static_cast<double>(m.matched) /
                                   static_cast<double>(m.isis_count)
                             : 0.0),
               strformat("%.0f", matched_downtime.hours_f()),
               strformat("%.1f%%",
                         m.isis_downtime.hours_f() > 0
                             ? 100.0 * matched_downtime.hours_f() /
                                   m.isis_downtime.hours_f()
                             : 0.0)});
  }
  return bench::table_bench_main(argc, argv, t.render());
}
