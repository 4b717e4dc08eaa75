#include "bench_common.hpp"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include "src/analysis/scenario_cache.hpp"

namespace {
// Lock-free allocation counter, bumped by the replaced operator new below.
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Counting operator new/delete, linked into every bench binary (replacing
// a replaceable global operator is the sanctioned hook — no allocator or
// LD_PRELOAD needed). Counts allocations only; frees are uninteresting for
// the allocs-per-event metric.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms (std::stable_sort's buffer, for one) must be replaced
// too: the runtime's own would pair with the free() below, which ASan
// reports as a mismatch, and their allocations would go uncounted.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    return nullptr;
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netfail::bench {

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

const analysis::PipelineResult& cenic_pipeline() {
  static const std::shared_ptr<const analysis::PipelineResult> result = [] {
    std::fprintf(stderr,
                 "[netfail] simulating 13 months of CENIC and running the "
                 "analysis pipeline...\n");
    std::shared_ptr<const analysis::PipelineResult> r =
        analysis::ScenarioCache::global().pipeline();
    std::fprintf(stderr, "[netfail] pipeline ready (%zu sim events)\n",
                 r->sim.events_processed);
    return r;
  }();
  return *result;
}

std::vector<std::shared_ptr<const analysis::PipelineResult>> run_pipelines(
    const std::vector<analysis::PipelineOptions>& options) {
  std::vector<std::shared_ptr<const analysis::PipelineResult>> out;
  out.reserve(options.size());
  for (const analysis::PipelineOptions& o : options) {
    out.push_back(analysis::ScenarioCache::global().pipeline(o));
  }
  return out;
}

std::string take_json_flag(int* argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0 && r + 1 < *argc) {
      path = argv[++r];
    } else if (std::strncmp(argv[r], "--json=", 7) == 0) {
      path = argv[r] + 7;
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return path;
}

int take_repeat_flag(int* argc, char** argv, int fallback) {
  int reps = fallback;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--repeat") == 0 && r + 1 < *argc) {
      reps = std::atoi(argv[++r]);
    } else if (std::strncmp(argv[r], "--repeat=", 9) == 0) {
      reps = std::atoi(argv[r] + 9);
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return reps < 1 ? 1 : reps;
}

void write_bench_json(const std::string& path,
                      const std::vector<BenchJsonEntry>& entries) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[netfail] cannot write bench json to %s\n",
                 path.c_str());
    return;
  }
  // hw_threads records the recording host's core count so the comparison
  // script can tell "this box is smaller" from "the code got slower" when
  // gating speedup_vs_serial.
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f,
               "{\n  \"hw_threads\": %u,\n  \"entries\": [",
               hw == 0 ? 1u : hw);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchJsonEntry& e = entries[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                 "\"events_per_sec\": %.1f, \"threads\": %d, "
                 "\"speedup_vs_serial\": %.3f",
                 i == 0 ? "" : ",", e.name.c_str(), e.wall_ms,
                 e.events_per_sec, e.threads, e.speedup_vs_serial);
    if (e.allocs_per_event >= 0) {
      std::fprintf(f, ", \"allocs_per_event\": %.3f", e.allocs_per_event);
    }
    std::fputc('}', f);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[netfail] wrote %zu bench entries to %s\n",
               entries.size(), path.c_str());
}

int table_bench_main(int argc, char** argv, const std::string& table_text,
                     const std::vector<BenchJsonEntry>& entries) {
  const std::string json_path = take_json_flag(&argc, argv);
  // Entries arrive pre-measured; strip --repeat anyway so every bench
  // binary accepts the flag (callers that retime pull it before this).
  take_repeat_flag(&argc, argv);
  std::printf("%s\n", table_text.c_str());
  std::fflush(stdout);
  write_bench_json(json_path, entries);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace netfail::bench
