// The paper's methodology as one pipeline over one capture.
//
// A capture is what both sources recorded over a study period: syslog
// collector, IS-IS listener LSPs, the census mined from the config archive,
// trouble tickets and listener outage windows. CaptureView holds them by
// const reference, so a simulation, a bundle read from disk
// (io::read_bundle) or your own streams all run the same stages:
//   3-4. extract_and_reconstruct(): extract transitions, rebuild failures
//   5-6. sanitize (listener gaps, ticket checks), then mark flaps
// Entry points:
//   - run_analysis(view): stages 3-6 over any capture (`netfail analyze`).
//   - run_pipeline(options): simulate and mine first (stages 1-2), keeping
//     the simulation in the result (benches, examples, tests).
//   - extract_and_reconstruct(view) alone: the unsanitized front that the
//     stream engine reproduces (`netfail export`, batch-vs-stream tests).
#pragma once

#include <vector>

#include "src/analysis/flaps.hpp"
#include "src/analysis/reconstruct.hpp"
#include "src/analysis/sanitize.hpp"
#include "src/config/archive.hpp"
#include "src/config/miner.hpp"
#include "src/isis/extract.hpp"
#include "src/sim/network_sim.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::analysis {

struct PipelineOptions {
  sim::ScenarioParams scenario = sim::cenic_scenario();
  ReconstructOptions reconstruct;  // period is filled from the capture

  bool operator==(const PipelineOptions&) const = default;
};

/// One capture, source-agnostic. Results never point into it.
struct CaptureView {
  TimeRange period;
  const LinkCensus& census;
  const syslog::Collector& collector;
  const std::vector<isis::LspRecord>& lsp_records;
  const TicketStore& tickets;
  const IntervalSet& listener_gaps;
};

/// Stages 3-4: both sources extracted and reconstructed, unsanitized.
struct Reconstructed {
  isis::IsisExtraction isis;
  syslog::SyslogExtraction syslog;
  Reconstruction isis_recon;
  Reconstruction syslog_recon;
};

/// `options.period` is replaced by the capture's period. Syslog extracts
/// on a task while IS-IS runs its lanes from the calling thread.
Reconstructed extract_and_reconstruct(const CaptureView& capture,
                                      ReconstructOptions options = {});

/// Stages 3-6. The reconstructions are sanitized (listener-gap failures
/// removed from both; long syslog failures ticket-verified) and flap-marked.
struct AnalysisResult : Reconstructed {
  TimeRange options_period;
  SanitizationReport isis_gap_report;
  SanitizationReport syslog_gap_report;
  SanitizationReport syslog_long_report;

  FlapAnalysis isis_flaps;
  FlapAnalysis syslog_flaps;
};

/// Reads options.reconstruct; scenario is for run_pipeline.
AnalysisResult run_analysis(const CaptureView& capture,
                            const PipelineOptions& options = {});

/// A simulated capture: stages 1-2, simulate and mine. ScenarioCache shares
/// these across call sites.
struct PipelineCapture {
  sim::SimulationResult sim;
  LinkCensus census;
  MiningStats mining;
  std::size_t archive_files = 0;
  TimeRange period;

  CaptureView view() const {
    return {period, census, sim.collector, sim.listener.records(),
            sim.tickets, sim.truth.listener_gaps()};
  }
};

/// The config archive is generated and mined with the default
/// ArchiveParams and MinerParams.
PipelineCapture run_capture(const sim::ScenarioParams& scenario);

/// The analysis of a simulated capture, kept together with the simulation
/// and census it ran on (Tables 1 and 7 read the topology and ground truth).
struct PipelineResult : AnalysisResult {
  sim::SimulationResult sim;
  LinkCensus census;
  MiningStats mining;
  std::size_t archive_files = 0;
};

/// Stages 1-6: run_pipeline(run_capture(...), options).
PipelineResult run_pipeline(const PipelineOptions& options = {});

/// Stages 3-6 over a simulated capture, which the result takes over.
PipelineResult run_pipeline(PipelineCapture capture,
                            const PipelineOptions& options = {});

/// Stages 4-5 for syslog again under another ambiguity policy, reusing r's
/// extraction. Table 7 uses hold-state.
Reconstruction sanitized_syslog(const PipelineResult& r,
                                AmbiguityPolicy policy);

}  // namespace netfail::analysis
