// Reproduces the goodness-of-fit analysis of sect. 4.2: two-sample KS tests
// between the syslog-inferred and IS-IS-reported distributions. The paper
// finds failures-per-link and link downtime consistent but failure duration
// distinct. A seed-stability sweep re-runs the whole pipeline on perturbed
// scenario seeds to show the verdicts are properties of the methodology,
// not of one RNG stream.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "src/common/strfmt.hpp"
#include "src/common/table.hpp"

namespace {

using namespace netfail;

void BM_KsTest(benchmark::State& state) {
  const analysis::PipelineResult& r = bench::cenic_pipeline();
  const auto d = analysis::compute_table5(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_two_sample(d.syslog.cpe.duration_s,
                                                  d.isis.cpe.duration_s));
  }
}
BENCHMARK(BM_KsTest)->Unit(benchmark::kMillisecond);

std::string seed_stability_table() {
  // Per-seed fan-out: each perturbed scenario is a full simulate + analyze
  // pipeline, run concurrently through the ScenarioCache.
  std::vector<analysis::PipelineOptions> options(3);
  options[1].scenario.seed ^= 0x9e3779b97f4a7c15ULL;
  options[2].scenario.seed ^= 0xd1b54a32d192ed03ULL;
  const auto results = bench::run_pipelines(options);

  TextTable t(
      "KS verdict stability across scenario seeds (pipelines run "
      "concurrently)");
  t.set_header({"Seed", "CPE duration D", "distinct?", "CPE failures D",
                "consistent?"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto d = analysis::compute_table5(*results[i]);
    const auto k = analysis::compute_ks(d);
    t.add_row({strformat("0x%llx", static_cast<unsigned long long>(
                                       options[i].scenario.seed)),
               strformat("%.3f", k.cpe_duration.statistic),
               k.cpe_duration.consistent() ? "no (!)" : "yes",
               strformat("%.3f", k.cpe_failures.statistic),
               k.cpe_failures.consistent() ? "yes" : "no (!)"});
  }
  return t.render();
}

}  // namespace

int main(int argc, char** argv) {
  const auto& r = netfail::bench::cenic_pipeline();
  const auto d = netfail::analysis::compute_table5(r);
  std::string text =
      netfail::analysis::render_ks(netfail::analysis::compute_ks(d));
  text += "\n" + seed_stability_table();
  return netfail::bench::table_bench_main(argc, argv, text);
}
