#include "src/analysis/pipeline.hpp"

#include <future>

namespace netfail::analysis {

PipelineCapture run_capture(const sim::ScenarioParams& scenario) {
  PipelineCapture out;
  out.period = scenario.period;

  // 1. Simulate the network for the study period.
  out.sim = sim::run_simulation(scenario);

  // 2. Mine the configuration archive into the link census (the common
  //    naming layer; paper sect. 3.4).
  const ConfigArchive archive =
      generate_archive(out.sim.topology, scenario.period);
  out.archive_files = archive.size();
  out.census =
      mine_archive(archive, scenario.period, {}, &out.mining);
  return out;
}

Reconstructed extract_and_reconstruct(const CaptureView& capture,
                                      ReconstructOptions options) {
  Reconstructed out;
  options.period = capture.period;
  // 3. Extract transitions from both raw streams. They share nothing, so
  //    syslog extracts on a task while IS-IS runs its lanes from here.
  // 4. Reconstruct failures, both on this thread: reconstruction's sort
  //    buffers are transient, and transient data stays on the caller's
  //    heap (DESIGN.md §7). On the task they cost `export` ~6 MB of peak
  //    RSS on bundle_busy.
  std::future<void> syslog_side = std::async(std::launch::async, [&] {
    out.syslog = syslog::extract_transitions(capture.collector, capture.census);
  });
  out.isis = isis::extract_transitions(capture.lsp_records, capture.census);
  out.isis_recon = reconstruct_from_isis(out.isis.is_reach, options);
  syslog_side.get();
  out.syslog_recon = reconstruct_from_syslog(out.syslog.transitions, options);
  return out;
}

AnalysisResult run_analysis(const CaptureView& capture,
                            const PipelineOptions& options) {
  AnalysisResult out;
  static_cast<Reconstructed&>(out) =
      extract_and_reconstruct(capture, options.reconstruct);
  out.options_period = capture.period;

  // 5. Sanitize: listener-gap periods are trusted in neither source; long
  //    syslog failures must be corroborated by a trouble ticket.
  const IntervalSet& gaps = capture.listener_gaps;
  out.isis_gap_report =
      remove_listener_gap_failures(out.isis_recon.failures, gaps);
  out.syslog_gap_report =
      remove_listener_gap_failures(out.syslog_recon.failures, gaps);
  out.syslog_long_report =
      verify_long_failures(out.syslog_recon.failures, capture.census,
                           capture.tickets);

  // 6. Flap detection (marks failures in place).
  out.isis_flaps = detect_flaps(out.isis_recon.failures);
  out.syslog_flaps = detect_flaps(out.syslog_recon.failures);

  return out;
}

PipelineResult run_pipeline(const PipelineOptions& options) {
  return run_pipeline(run_capture(options.scenario), options);
}

PipelineResult run_pipeline(PipelineCapture capture,
                            const PipelineOptions& options) {
  AnalysisResult analysis = run_analysis(capture.view(), options);
  return {std::move(analysis), std::move(capture.sim),
          std::move(capture.census), capture.mining, capture.archive_files};
}

Reconstruction sanitized_syslog(const PipelineResult& r,
                                AmbiguityPolicy policy) {
  ReconstructOptions options;
  options.period = r.options_period;
  options.policy = policy;
  Reconstruction recon =
      reconstruct_from_syslog(r.syslog.transitions, options);
  (void)remove_listener_gap_failures(recon.failures,
                                     r.sim.truth.listener_gaps());
  (void)verify_long_failures(recon.failures, r.census, r.sim.tickets);
  return recon;
}

}  // namespace netfail::analysis
