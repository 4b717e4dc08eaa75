// Microbenchmarks of the substrate hot paths: LSP encode/decode, batch
// IS-IS transition extraction, syslog render/parse, interval-set
// arithmetic, Table 4's per-link failure join, Fletcher checksum, and KS
// test.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/analysis/match.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/common/interval_set.hpp"
#include "src/common/rng.hpp"
#include "src/isis/checksum.hpp"
#include "src/isis/extract.hpp"
#include "src/isis/pdu.hpp"
#include "src/sim/scenario.hpp"
#include "src/stats/ks_test.hpp"
#include "src/syslog/message.hpp"

namespace {

using namespace netfail;

/// Samples the process allocation counter (the operator-new hook in
/// bench_common.cpp) across a benchmark loop; report with
/// `state.counters["allocs_per_op"]`.
class AllocSample {
 public:
  AllocSample() : start_(bench::alloc_count()) {}
  double per_op(const benchmark::State& state) const {
    if (state.iterations() == 0) return 0;
    return static_cast<double>(bench::alloc_count() - start_) /
           static_cast<double>(state.iterations());
  }

 private:
  std::uint64_t start_;
};

isis::Lsp make_lsp(int adjacencies, int prefixes) {
  isis::Lsp lsp;
  lsp.source = OsiSystemId::from_index(1);
  lsp.sequence = 42;
  lsp.hostname = "lax-core-1";
  for (int i = 0; i < adjacencies; ++i) {
    lsp.is_reach.push_back(
        isis::IsReachEntry{OsiSystemId::from_index(10 + static_cast<std::uint32_t>(i)), 0, 10});
  }
  for (int i = 0; i < prefixes; ++i) {
    lsp.ip_reach.push_back(isis::IpReachEntry{
        10, Ipv4Prefix{Ipv4Address{137, 164, 0, static_cast<std::uint8_t>(2 * i)}, 31}});
  }
  return lsp;
}

void BM_LspEncode(benchmark::State& state) {
  const isis::Lsp lsp = make_lsp(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = lsp.encode();
    bytes += encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LspEncode)->Arg(4)->Arg(16)->Arg(64);

void BM_LspDecode(benchmark::State& state) {
  const auto bytes = make_lsp(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(0)))
                         .encode();
  const AllocSample allocs;
  for (auto _ : state) {
    auto decoded = isis::Lsp::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["allocs_per_op"] = allocs.per_op(state);
}
BENCHMARK(BM_LspDecode)->Arg(4)->Arg(16)->Arg(64);

void BM_LspDecodeInto(benchmark::State& state) {
  // The streaming extractor's path: decode into a reused scratch Lsp, so
  // steady state allocates nothing.
  const auto bytes = make_lsp(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(0)))
                         .encode();
  isis::Lsp scratch;
  const AllocSample allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isis::Lsp::decode_into(bytes, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["allocs_per_op"] = allocs.per_op(state);
}
BENCHMARK(BM_LspDecodeInto)->Arg(4)->Arg(16)->Arg(64);

void BM_IsisExtractTransitions(benchmark::State& state) {
  // Batch LSP -> transition extraction over the simulated CENIC capture:
  // the source lanes' decode + diff, then the record-order fold.
  static const std::shared_ptr<const analysis::PipelineCapture> capture =
      analysis::ScenarioCache::global().capture(sim::cenic_scenario());
  const std::vector<isis::LspRecord>& records = capture->sim.listener.records();
  std::size_t transitions = 0;
  for (auto _ : state) {
    const isis::IsisExtraction ex =
        isis::extract_transitions(records, capture->census);
    transitions = ex.is_reach.size() + ex.ip_reach.size();
    benchmark::DoNotOptimize(transitions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
  state.counters["transitions"] =
      benchmark::Counter(static_cast<double>(transitions));
}
BENCHMARK(BM_IsisExtractTransitions)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // the lanes run on other threads

void BM_FletcherChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fletcher_checksum(data, 12));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FletcherChecksum)->Arg(64)->Arg(256)->Arg(1024);

void BM_SyslogRender(benchmark::State& state) {
  syslog::Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, 14, 1, 59, 26);
  m.reporter = "edu042-gw-1";
  m.dialect = RouterOs::kIos;
  m.type = syslog::MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface = "GigabitEthernet0/1";
  m.neighbor = "lax-core-1";
  m.reason = "interface state down";
  const AllocSample allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.render(1234));
  }
  state.counters["allocs_per_op"] = allocs.per_op(state);
}
BENCHMARK(BM_SyslogRender);

void BM_SyslogRenderTo(benchmark::State& state) {
  // The simulator's path: render into a reused buffer (zero steady-state
  // allocations).
  syslog::Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, 14, 1, 59, 26);
  m.reporter = "edu042-gw-1";
  m.dialect = RouterOs::kIos;
  m.type = syslog::MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface = "GigabitEthernet0/1";
  m.neighbor = "lax-core-1";
  m.reason = "interface state down";
  std::string buf;
  const AllocSample allocs;
  for (auto _ : state) {
    m.render_to(buf, 1234);
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] = allocs.per_op(state);
}
BENCHMARK(BM_SyslogRenderTo);

void BM_SyslogParse(benchmark::State& state) {
  syslog::Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, 14, 1, 59, 26);
  m.reporter = "edu042-gw-1";
  m.type = syslog::MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface = "GigabitEthernet0/1";
  m.neighbor = "lax-core-1";
  m.reason = "interface state down";
  const std::string line = m.render(1234);
  syslog::LineParse parse;
  const AllocSample allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(syslog::tokenize(line, parse));
    benchmark::DoNotOptimize(parse);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
  state.counters["allocs_per_op"] = allocs.per_op(state);
}
BENCHMARK(BM_SyslogParse);

void BM_IntervalSetAdd(benchmark::State& state) {
  Rng rng(7);
  std::vector<TimeRange> ranges;
  for (int i = 0; i < state.range(0); ++i) {
    const TimePoint b = TimePoint::from_unix_millis(rng.uniform_int(0, 1'000'000'000));
    ranges.push_back(TimeRange{b, b + Duration::seconds(rng.uniform_int(1, 3600))});
  }
  for (auto _ : state) {
    IntervalSet set;
    for (const TimeRange& r : ranges) set.add(r);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IntervalSetAdd)->Arg(100)->Arg(1000);

void BM_MatchFailuresDenseLink(benchmark::State& state) {
  // Table 4's failure join on one link with n failures per side, starts
  // 0-6 s apart so several share each 10 s window: time per call grows as
  // n log n, where a per-failure rescan of the link grows as n^2.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  const auto failure = [](std::int64_t b, std::int64_t e) {
    analysis::Failure f;
    f.link = LinkId{0};
    f.span = TimeRange{TimePoint::from_unix_millis(b),
                       TimePoint::from_unix_millis(e)};
    return f;
  };
  std::vector<analysis::Failure> isis, syslog;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform_int(0, 6'000);
    const std::int64_t end = t + rng.uniform_int(1, 20'000);
    isis.push_back(failure(t, end));
    const std::int64_t b = t + rng.uniform_int(-12'000, 12'000);
    syslog.push_back(failure(
        b, std::max(b + 1, end + rng.uniform_int(-12'000, 12'000))));
  }
  std::sort(syslog.begin(), syslog.end(),
            [](const analysis::Failure& a, const analysis::Failure& b) {
              return a.span.begin < b.span.begin;
            });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::match_failures(isis, syslog, analysis::MatchOptions{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_MatchFailuresDenseLink)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_KsTwoSample(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(rng.lognormal(3.0, 1.5));
    b.push_back(rng.lognormal(3.1, 1.4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_two_sample(a, b));
  }
}
BENCHMARK(BM_KsTwoSample)->Arg(1000)->Arg(10000);

/// Self-timed entries for the --json trajectory: fixed workloads with
/// events/sec, best-of `reps` passes per entry.
std::vector<bench::BenchJsonEntry> measure_json_entries(int reps) {
  using clock = std::chrono::steady_clock;
  std::vector<bench::BenchJsonEntry> entries;
  const auto timed = [&](const std::string& name, std::size_t events,
                         const std::function<void()>& fn) {
    double ms = 0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock::now();
      fn();
      const double pass_ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count();
      if (r == 0 || pass_ms < ms) ms = pass_ms;
    }
    entries.push_back({name, ms, ms > 0 ? 1000.0 * static_cast<double>(events) / ms : 0,
                       1, 1.0});
  };

  constexpr std::size_t kParse = 100'000;
  syslog::Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, 14, 1, 59, 26);
  m.reporter = "edu042-gw-1";
  m.type = syslog::MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface = "GigabitEthernet0/1";
  m.neighbor = "lax-core-1";
  m.reason = "interface state down";
  const std::string line = m.render(1234);
  syslog::LineParse parse;
  timed("syslog_parse", kParse, [&] {
    for (std::size_t i = 0; i < kParse; ++i) {
      benchmark::DoNotOptimize(syslog::tokenize(line, parse));
      benchmark::DoNotOptimize(parse);
    }
  });

  constexpr std::size_t kDecode = 20'000;
  const auto bytes = make_lsp(16, 16).encode();
  timed("lsp_decode", kDecode, [&] {
    for (std::size_t i = 0; i < kDecode; ++i) {
      benchmark::DoNotOptimize(isis::Lsp::decode(bytes));
    }
  });
  return entries;
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
