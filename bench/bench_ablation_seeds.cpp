// Ablation: the sect. 4.2 KS verdicts across scenario seeds. The paper finds
// failures-per-link and link downtime consistent but failure duration
// distinct; re-running the whole pipeline on perturbed seeds shows the
// verdicts are properties of the methodology, not of one RNG stream.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "src/common/strfmt.hpp"
#include "src/common/table.hpp"

namespace {

using namespace netfail;

std::string seed_stability_table() {
  // Each perturbed scenario is a full simulate + analyze pipeline.
  std::vector<analysis::PipelineOptions> options(3);
  options[1].scenario.seed ^= 0x9e3779b97f4a7c15ULL;
  options[2].scenario.seed ^= 0xd1b54a32d192ed03ULL;
  const auto results = bench::run_pipelines(options);

  TextTable t("KS verdict stability across scenario seeds");
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
  return netfail::bench::table_bench_main(argc, argv, seed_stability_table());
}
