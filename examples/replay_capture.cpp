// Replay: write a simulated capture to disk as a bundle (flat syslog text,
// NFC1 LSP capture, config archive, tickets, listener gaps), read it back
// and run the analysis over the *files* — demonstrating that the pipeline
// works from on-disk captures exactly as it does in memory. This is the
// adoption path for real data: lay your collector file, listener capture
// and config archive out as a bundle, then io::read_bundle + run_analysis.
//
//   $ ./replay_capture [workdir]     # default: ./netfail_replay
#include <cstdio>
#include <string>

#include "src/analysis/pipeline.hpp"
#include "src/analysis/tables.hpp"
#include "src/io/bundle.hpp"

int main(int argc, char** argv) {
  using namespace netfail;
  const std::string dir = argc > 1 ? argv[1] : "netfail_replay";

  // 1. Produce the streams (stand-in for a real deployment's capture).
  analysis::PipelineOptions options;
  options.scenario = sim::test_scenario(33);
  std::fprintf(stderr, "simulating...\n");
  const analysis::PipelineResult live = analysis::run_pipeline(options);

  // 2. Write them to disk.
  const TimeRange period = options.scenario.period;
  if (Status s = io::write_bundle(
          dir, period, live.sim.collector, live.sim.listener.records(),
          generate_archive(live.sim.topology, period),
          live.sim.tickets, live.sim.truth.listener_gaps());
      !s) {
    std::fprintf(stderr, "error: %s\n", s.error().to_string().c_str());
    return 1;
  }

  // 3. Reload and re-run the analysis from the files.
  const Result<io::Bundle> b = io::read_bundle(dir);
  if (!b) {
    std::fprintf(stderr, "reload failed: %s\n",
                 b.error().to_string().c_str());
    return 1;
  }
  const analysis::AnalysisResult files = analysis::run_analysis(
      {b->period, b->census, b->collector, b->lsp_records, b->tickets,
       b->listener_gaps},
      options);

  // 4. The file-based run must reproduce the in-memory one, table for table.
  const std::string report = analysis::render_comparison(files, b->census);
  const bool exact = report == analysis::render_comparison(live, live.census);
  std::printf("%s\nround-trip through %s: %s\n", report.c_str(), dir.c_str(),
              exact ? "EXACT" : "DIVERGED");
  return exact ? 0 : 1;
}
