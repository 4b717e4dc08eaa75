// Streaming vs batch throughput: events/second through the online engine
// against the same work done by the batch extract+reconstruct pass, plus
// the memory story — the stream's peak buffered-transition count versus the
// full transition vectors the batch path must materialize.
//
// The engine's per-event cost is dominated by extraction (LSP decode /
// syslog parse); the tracker adds a heap push/pop per transition. Batch
// wins on raw throughput (no per-event dispatch, single sort), the stream
// wins on memory and latency-to-result: failures surface as the UP arrives
// instead of after the capture closes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"

namespace {

using namespace netfail;

using Capture = analysis::PipelineCapture;

/// The full CENIC-scale capture, simulated once per process (shared with
/// any other ScenarioCache user in this binary).
const Capture& capture() {
  static const std::shared_ptr<const Capture> c =
      analysis::ScenarioCache::global().capture(sim::cenic_scenario());
  return *c;
}

std::size_t event_count(const Capture& c) {
  return c.sim.collector.size() + c.sim.listener.records().size();
}

/// One full batch extract+reconstruct pass; returns the failure count.
std::size_t batch_pass(const Capture& c) {
  const analysis::Reconstructed r = analysis::extract_and_reconstruct(c.view());
  return r.isis_recon.failures.size() + r.syslog_recon.failures.size();
}

void BM_BatchExtractReconstruct(benchmark::State& state) {
  const Capture& c = capture();
  std::size_t failures = 0;
  for (auto _ : state) {
    failures = batch_pass(c);
    benchmark::DoNotOptimize(failures);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(event_count(c)));
  state.counters["failures"] =
      benchmark::Counter(static_cast<double>(failures));
}
BENCHMARK(BM_BatchExtractReconstruct)->Unit(benchmark::kMillisecond);

void BM_StreamEngine(benchmark::State& state) {
  const Capture& c = capture();
  stream::EngineOptions options;
  options.tracker.reconstruct.period = c.period;
  std::uint64_t failures = 0;
  std::uint64_t pending_peak = 0;
  for (auto _ : state) {
    stream::StreamEngine engine(c.census, options);
    stream::EventMux mux = stream::EventMux::over_vectors(
        c.sim.collector.lines(), c.sim.listener.records());
    while (auto ev = mux.next()) engine.feed(*ev);
    engine.finish();
    failures = engine.isis_tracker().counters().failures_released +
               engine.syslog_tracker().counters().failures_released;
    pending_peak = engine.isis_tracker().counters().pending_peak +
                   engine.syslog_tracker().counters().pending_peak;
    benchmark::DoNotOptimize(failures);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(event_count(c)));
  state.counters["failures"] =
      benchmark::Counter(static_cast<double>(failures));
  // The O(links + window) claim, measured: peak buffered transitions across
  // both trackers (compare with items_per_second's event count).
  state.counters["pending_peak"] =
      benchmark::Counter(static_cast<double>(pending_peak));
}
BENCHMARK(BM_StreamEngine)->Unit(benchmark::kMillisecond);

void BM_StreamEngineIngestOnly(benchmark::State& state) {
  // Tracker-only cost: pre-extracted transitions, no LSP/syslog parsing.
  const Capture& c = capture();
  const std::vector<isis::IsisTransition> is_reach =
      analysis::extract_and_reconstruct(c.view()).isis.is_reach;
  stream::TrackerOptions options;
  options.reconstruct.period = c.period;
  std::size_t n = 0;
  for (auto _ : state) {
    stream::LinkTracker tracker(options);
    for (const isis::IsisTransition& tr : is_reach) {
      if (!tr.link.valid() || tr.multilink) continue;
      tracker.ingest({tr.link, tr.time, tr.dir});
      ++n;
    }
    tracker.finish();
    benchmark::DoNotOptimize(tracker.counters().failures_released);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamEngineIngestOnly)->Unit(benchmark::kMillisecond);

double timed_ms(const std::function<void()>& fn, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Self-timed entries for BENCH_pipeline.json: the batch pipeline pass and
/// one streaming-engine pass.
std::vector<bench::BenchJsonEntry> measure_json_entries(int reps) {
  const Capture& c = capture();
  const double events = static_cast<double>(event_count(c));

  const auto stream_pass = [&] {
    stream::EngineOptions options;
    options.tracker.reconstruct.period = c.period;
    stream::StreamEngine engine(c.census, options);
    stream::EventMux mux = stream::EventMux::over_vectors(
        c.sim.collector.lines(), c.sim.listener.records());
    while (auto ev = mux.next()) engine.feed(*ev);
    engine.finish();
    benchmark::DoNotOptimize(
        engine.isis_tracker().counters().failures_released);
  };

  // Allocations per event, from one extra pass of each flavor (the timed
  // passes warm every cache, so these are steady-state).
  const auto allocs_of = [&](const std::function<void()>& fn) {
    const std::uint64_t before = bench::alloc_count();
    fn();
    return static_cast<double>(bench::alloc_count() - before) / events;
  };

  const auto batch = [&] { benchmark::DoNotOptimize(batch_pass(c)); };
  const double serial_ms = timed_ms(batch, reps);
  const double serial_allocs = allocs_of(batch);

  const double stream_ms = timed_ms(stream_pass, reps);
  const double stream_allocs = allocs_of(stream_pass);

  return {
      {"batch_extract_reconstruct_serial", serial_ms, 1000.0 * events / serial_ms,
       1, 1.0, serial_allocs},
      {"stream_engine", stream_ms, 1000.0 * events / stream_ms, 1, 1.0,
       stream_allocs},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = netfail::bench::take_repeat_flag(&argc, argv);
  const std::string json_path = netfail::bench::take_json_flag(&argc, argv);
  if (!json_path.empty()) {
    netfail::bench::write_bench_json(json_path, measure_json_entries(reps));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
