// Socket-path ingest throughput: how fast the IngestGateway moves real
// datagrams and frames from the loopback into the streaming engine, and
// what it drops while doing so.
//
// Three passes, each a full gateway lifecycle (bind, blast a capture at it
// unpaced, drain, stop):
//
//   net_udp_ingest   syslog datagrams (sendto -> recvmmsg -> queue ->
//                    engine). UDP is allowed to drop: the kernel sheds
//                    datagrams when the socket buffer fills and the gateway
//                    sheds when its bounded queue fills; both losses are
//                    counted, and the reported drop rate is (sent -
//                    enqueued) / sent — the live analogue of the paper's
//                    syslog collection loss.
//   net_tcp_ingest   LSP frames (length-prefixed TCP). Never drops:
//                    backpressure pauses the socket instead.
//   net_mixed_ingest both feeds at once, the serve-verb workload.
//   net_mixed_ingest_2shard
//                    the mixed workload at a 2-shard gateway (per-shard
//                    breakdown rows ride along; speedup_vs_serial is
//                    measured against the 1-shard mixed pass).
//   net_mixed_ingest_4shard
//                    the same at 4 shards — only where the box has >= 4
//                    hardware threads;
//                    scripts/record_shard_scaling.sh captures the scaling
//                    curve on a multi-core machine.
//
// Throughput counts events *through the engine* (delivered / wall), not
// wire writes — a datagram that was sent but shed is not throughput. Each
// pass also samples the global allocation counter (bench_common's counting
// operator new) for an allocs/event figure; the counter is process-wide, so
// the number includes the in-process replay sender — the engine-path
// allocs/event target (<= 0.2) is measured by the stream benches, and this
// figure gates only against itself. The self-timed entries land in the
// --json trajectory (gated by check.sh at 10%); passes are skipped
// gracefully where the sandbox forbids sockets.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/common/assert.hpp"
#include "src/common/strfmt.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"
#include "src/net/socket.hpp"
#include "src/sim/network_sim.hpp"

namespace {

using namespace netfail;

struct Capture {
  std::shared_ptr<const analysis::PipelineCapture> cap;
  const LinkCensus& census() const { return cap->census; }
  const std::vector<syslog::ReceivedLine>& lines() const {
    return cap->sim.collector.lines();
  }
  const std::vector<isis::LspRecord>& records() const {
    return cap->sim.listener.records();
  }
};

const Capture& capture() {
  static const Capture c = {
      analysis::ScenarioCache::global().capture(sim::test_scenario(7))};
  return c;
}

struct PassResult {
  std::uint64_t sent = 0;       // wire writes attempted
  std::uint64_t delivered = 0;  // events the engine consumed
  std::uint64_t dropped = 0;    // kernel + bounded-queue sheds (UDP only)
  std::uint64_t allocs = 0;     // heap allocations over the pass (all threads)
  double wall_ms = 0;
  /// Events each shard's engine consumed (syslog routed + LSP broadcast).
  std::vector<std::uint64_t> per_shard;

  double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(delivered) / (wall_ms / 1e3)
                       : 0.0;
  }
  double drop_rate() const {
    return sent > 0 ? static_cast<double>(dropped) / static_cast<double>(sent)
                    : 0.0;
  }
  double allocs_per_event() const {
    return delivered > 0
               ? static_cast<double>(allocs) / static_cast<double>(delivered)
               : 0.0;
  }
};

/// One gateway lifecycle: replay `repeats` copies of the capture's feeds
/// unpaced, wait for the drain, stop. Either feed may be empty. The clock
/// covers first write to last event drained — end-to-end, not wire-only.
PassResult ingest_pass(bool with_syslog, bool with_lsp, int repeats,
                       std::uint32_t shards = 1) {
  const Capture& c = capture();
  net::GatewayOptions opts;
  opts.capture_start = c.cap->period.begin;
  opts.engine.tracker.reconstruct.period = c.cap->period;
  opts.shards = shards;
  net::IngestGateway gw(c.census(), opts);
  const Status started = gw.start();
  NETFAIL_ASSERT(started.ok(), "gateway start failed");

  static const std::vector<syslog::ReceivedLine> kNoLines;
  static const std::vector<isis::LspRecord> kNoRecords;
  const auto& lines = with_syslog ? c.lines() : kNoLines;
  const auto& records = with_lsp ? c.records() : kNoRecords;

  net::ReplayOptions replay;
  replay.syslog_port = gw.syslog_port();
  replay.lsp_port = gw.lsp_port();
  replay.rate = 0.0;  // unpaced: as fast as sendto/send accept

  PassResult out;
  std::uint64_t syslog_sent = 0;
  const std::uint64_t alloc0 = netfail::bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const auto stats = net::replay_capture(lines, records, replay);
    NETFAIL_ASSERT(stats.ok(), "replay failed");
    syslog_sent += stats->syslog_sent;
    out.sent += stats->syslog_sent + stats->lsp_frames_sent;
  }
  const bool drained = gw.wait_replay_complete(
      std::chrono::seconds(120), with_lsp ? static_cast<std::uint64_t>(repeats) : 0);
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = netfail::bench::alloc_count() - alloc0;
  NETFAIL_ASSERT(drained, "replay did not drain");
  gw.stop();
  for (std::uint32_t i = 0; i < gw.shard_count(); ++i) {
    out.per_shard.push_back(gw.engine(i).syslog_events() +
                            gw.engine(i).lsp_events());
  }

  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  // Delivered = drained through the whole path (socket -> queue -> consumer
  // pop). Counted from gateway counters, not engine events: replaying the
  // same capture `repeats` times makes LSP arrivals non-monotonic, and the
  // consumer's time-travel guard (an analysis policy, not a transport
  // property) discards the repeats after popping them.
  const net::GatewayCounters counters = gw.counters();
  out.delivered = counters.syslog_enqueued + counters.lsp_frames;
  // Only the UDP side may shed: kernel socket-buffer overflow (sent but
  // never received) plus bounded-queue overflow (received but not
  // enqueued). TCP either delivers or pauses.
  out.dropped = (syslog_sent - counters.syslog_datagrams) +
                counters.syslog_queue_drops;
  return out;
}

/// Repeats sized so each pass pushes ~`target` messages end to end.
int repeats_for(std::size_t per_replay, std::size_t target) {
  if (per_replay == 0) return 1;
  const std::size_t r = (target + per_replay - 1) / per_replay;
  return static_cast<int>(r < 1 ? 1 : r);
}

// ---- google-benchmark wrappers (manual runs; check.sh filters these out) ----

void BM_UdpIngest(benchmark::State& state) {
  if (!net::sockets_available()) {
    state.SkipWithError("sockets unavailable");
    return;
  }
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const PassResult r = ingest_pass(true, false, 4);
    delivered += r.delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_UdpIngest)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TcpIngest(benchmark::State& state) {
  if (!net::sockets_available()) {
    state.SkipWithError("sockets unavailable");
    return;
  }
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const PassResult r = ingest_pass(false, true, 4);
    delivered += r.delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_TcpIngest)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  using netfail::bench::BenchJsonEntry;

  std::string table = "== netfail::net ingest throughput (loopback) ==\n";
  std::vector<BenchJsonEntry> entries;
  if (!net::sockets_available()) {
    table += "sockets unavailable in this sandbox — ingest passes skipped\n";
    return netfail::bench::table_bench_main(argc, argv, table, entries);
  }

  const Capture& c = capture();
  struct Spec {
    const char* name;
    bool syslog;
    bool lsp;
    std::size_t per_replay;
    std::uint32_t shards;
  };
  std::vector<Spec> specs = {
      {"net_udp_ingest", true, false, c.lines().size(), 1},
      {"net_tcp_ingest", false, true, c.records().size(), 1},
      {"net_mixed_ingest", true, true, c.lines().size() + c.records().size(),
       1},
      {"net_mixed_ingest_2shard", true, true,
       c.lines().size() + c.records().size(), 2},
  };
  // The 4-shard point only means anything with cores to back it (ROADMAP
  // item 1 wants the multi-core scaling curve; scripts/record_shard_scaling.sh
  // runs this on such a box). On smaller machines it is skipped so the
  // committed baseline never gains an entry a 1-core CI runner can't defend.
  if (std::thread::hardware_concurrency() >= 4) {
    specs.push_back({"net_mixed_ingest_4shard", true, true,
                     c.lines().size() + c.records().size(), 4});
  } else {
    table += "fewer than 4 hardware threads — 4-shard pass skipped "
             "(see scripts/record_shard_scaling.sh)\n";
  }
  table += netfail::strformat(
      "%-26s %10s %10s %10s %12s %9s %8s\n", "pass", "sent", "delivered",
      "dropped", "msgs/sec", "drop", "allocs");
  double mixed_serial_eps = 0.0;
  for (const Spec& s : specs) {
    // Warm-up pass absorbs one-time costs (scenario sim, page faults).
    (void)ingest_pass(s.syslog, s.lsp, 1, s.shards);
    const PassResult r = ingest_pass(
        s.syslog, s.lsp, repeats_for(s.per_replay, 200000), s.shards);
    table += netfail::strformat(
        "%-26s %10llu %10llu %10llu %12.0f %8.2f%% %8.3f\n", s.name,
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.dropped), r.events_per_sec(),
        100.0 * r.drop_rate(), r.allocs_per_event());
    if (std::string(s.name) == "net_mixed_ingest") {
      mixed_serial_eps = r.events_per_sec();
    }
    BenchJsonEntry e;
    e.name = s.name;
    e.wall_ms = r.wall_ms;
    e.events_per_sec = r.events_per_sec();
    e.threads = static_cast<int>(1 + s.shards);  // one IO loop + N consumers
    e.allocs_per_event = r.allocs_per_event();
    if (s.shards > 1 && mixed_serial_eps > 0) {
      e.speedup_vs_serial = r.events_per_sec() / mixed_serial_eps;
    }
    entries.push_back(e);
    if (s.shards > 1) {
      // Per-shard breakdown: what each shard's engine consumed (routed
      // syslog + the broadcast LSP stream) over the same wall clock.
      for (std::uint32_t i = 0; i < s.shards; ++i) {
        const std::uint64_t ev = r.per_shard[i];
        const double eps =
            r.wall_ms > 0 ? static_cast<double>(ev) / (r.wall_ms / 1e3) : 0.0;
        table += netfail::strformat("%-26s %10s %10llu %10s %12.0f\n",
                                 netfail::strformat("%s.shard%u", s.name, i)
                                     .c_str(),
                                 "-", static_cast<unsigned long long>(ev), "-",
                                 eps);
        BenchJsonEntry se;
        se.name = netfail::strformat("%s.shard%u", s.name, i);
        se.wall_ms = r.wall_ms;
        se.events_per_sec = eps;
        se.threads = 1;  // the shard's consumer
        entries.push_back(se);
      }
    }
  }
  return netfail::bench::table_bench_main(argc, argv, table, entries);
}
