// Reproduces the paper: prints analysis::render_paper() for the calibrated
// CENIC scenario (Tables 1-7, Figure 1, the sect. 3.4 window sweep, the
// sect. 4.3 repair strategies and the sect. 4.2 KS tests; the same bytes as
// tests/golden/cenic_paper.txt), then times the analysis stage behind each
// table with google-benchmark.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "src/stats/ecdf.hpp"

namespace {

using namespace netfail;

void BM_ComputeTable1(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table1(r));
  }
}
BENCHMARK(BM_ComputeTable1);

void BM_MineConfigArchive(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  const ConfigArchive archive = generate_archive(
      r.sim.topology, r.options_period, ArchiveParams{});
  for (auto _ : state) {
    MiningStats stats;
    benchmark::DoNotOptimize(
        mine_archive(archive, r.options_period, MinerParams{}, &stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(archive.size()));
}
BENCHMARK(BM_MineConfigArchive)->Unit(benchmark::kMillisecond);

void BM_MatchReachability(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table2(r));
  }
}
BENCHMARK(BM_MatchReachability)->Unit(benchmark::kMillisecond);

void BM_MatchTransitions(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table3(r));
  }
}
BENCHMARK(BM_MatchTransitions)->Unit(benchmark::kMillisecond);

// Table 4's failure join at the sweep's windows; 10 s is compute_table4.
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

// Syslog reconstruction under the accounting baseline (assume-up) and the
// repair strategy Table 7 uses (hold-state).
void BM_ReconstructSyslog(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  analysis::ReconstructOptions opts;
  opts.period = r.options_period;
  opts.policy = static_cast<analysis::AmbiguityPolicy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::reconstruct_from_syslog(r.syslog.transitions, opts));
  }
}
BENCHMARK(BM_ReconstructSyslog)
    ->Arg(static_cast<int>(analysis::AmbiguityPolicy::kAssumeUp))
    ->Arg(static_cast<int>(analysis::AmbiguityPolicy::kHoldState))
    ->Unit(benchmark::kMillisecond);

void BM_LinkStatistics(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table5(r));
  }
}
BENCHMARK(BM_LinkStatistics)->Unit(benchmark::kMillisecond);

void BM_BuildCdfs(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  const auto d = analysis::compute_table5(r);
  for (auto _ : state) {
    stats::Ecdf dur(d.syslog.cpe.duration_s);
    benchmark::DoNotOptimize(dur);
  }
}
BENCHMARK(BM_BuildCdfs);

void BM_ClassifyAmbiguous(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table6(r));
  }
}
BENCHMARK(BM_ClassifyAmbiguous)->Unit(benchmark::kMillisecond);

void BM_Isolation(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_table7(r));
  }
}
BENCHMARK(BM_Isolation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string text =
      netfail::analysis::render_paper(netfail::bench::cenic_pipeline());
  text.pop_back();  // table_bench_main ends the text with its own newline
  return netfail::bench::table_bench_main(argc, argv, text);
}
