// Shared infrastructure for the benchmarks: the calibrated 13-month CENIC
// pipeline comes from the process-wide analysis::ScenarioCache (so a binary
// touching it from several places still simulates once); every bench prints
// its text (bench_paper: the paper's tables from this run) and then runs
// its google-benchmark timings.
//
// Benches also emit a machine-readable perf trajectory: pass
// `--json <path>` (conventionally BENCH_pipeline.json) and the binary
// writes its self-timed entries — events/sec, wall ms, thread count, and
// speedup vs the forced-serial run — before handing off to
// google-benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/pipeline.hpp"
#include "src/analysis/tables.hpp"

namespace netfail::bench {

/// The full CENIC-scale pipeline, computed once per process (shared with
/// every other ScenarioCache user in the binary).
const analysis::PipelineResult& cenic_pipeline();

/// Per-seed sweep: run one pipeline per options entry through the
/// ScenarioCache. Results land in input order.
std::vector<std::shared_ptr<const analysis::PipelineResult>> run_pipelines(
    const std::vector<analysis::PipelineOptions>& options);

// ---- allocation counting ----------------------------------------------------

/// Global heap allocations so far (bench binaries replace operator new with
/// a counting hook; see bench_common.cpp). Sample before and after a pass
/// and divide the delta by the event count for allocs/event. Counts every
/// thread's allocations, so take deltas around single-threaded sections.
std::uint64_t alloc_count();

// ---- machine-readable bench output (BENCH_*.json) ---------------------------

struct BenchJsonEntry {
  std::string name;
  double wall_ms = 0;
  double events_per_sec = 0;
  int threads = 1;
  double speedup_vs_serial = 1.0;
  /// Heap allocations per event for this pass; negative when not measured.
  double allocs_per_event = -1.0;
};

/// Remove "--json <path>" / "--json=<path>" from argv (so google-benchmark
/// never sees it) and return the path, or "" when absent.
std::string take_json_flag(int* argc, char** argv);

/// Remove "--repeat <N>" / "--repeat=<N>" from argv and return N — the
/// best-of sample count for the self-timed JSON entries (each wall_ms is
/// the minimum over N passes, which rejects scheduler noise on shared
/// boxes). Falls back to `fallback`; values below 1 clamp to 1.
int take_repeat_flag(int* argc, char** argv, int fallback = 3);

/// Write the entries as a JSON document at `path` (no-op for empty path).
void write_bench_json(const std::string& path,
                      const std::vector<BenchJsonEntry>& entries);

/// Print the reproduction banner + table, write `entries` if the caller
/// passed --json, then hand off to google-benchmark.
int table_bench_main(int argc, char** argv, const std::string& table_text,
                     const std::vector<BenchJsonEntry>& entries = {});

}  // namespace netfail::bench
