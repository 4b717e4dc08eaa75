// Loopback round-trips through the full socket path: replay a simulated
// CENIC capture bundle at an IngestGateway over real UDP/TCP and check the
// online analysis against the batch pipeline over the same files.
//
//   - zero faults: the reconstruction must be interval-identical to batch
//     (same failures, same FSM counters) — a served stream and a capture
//     file are interchangeable observations;
//   - seeded UDP loss: exactly accounted, deterministic, and visible as
//     the paper's headline asymmetry (syslog misses failures the LSP feed
//     keeps);
//   - a slow consumer: TCP backpressure pauses instead of dropping;
//   - connection resets: torn frames are counted, never crash the feed;
//   - SIGINT-style stop: buffered events drain through the engine before
//     the final checkpoint.
//
// Every test skips gracefully when the sandbox forbids sockets.
#include "src/net/gateway.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/net/replay.hpp"
#include "src/net/socket.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/event_mux.hpp"

namespace netfail::net {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario scenario(std::uint64_t seed) {
  return analysis::ScenarioCache::global().capture(sim::test_scenario(seed));
}

auto failure_key(const analysis::Failure& f) {
  return std::make_tuple(f.link, f.span.begin, f.span.end, f.source);
}

std::vector<analysis::Failure> sorted(std::vector<analysis::Failure> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return failure_key(a) < failure_key(b);
  });
  return v;
}

/// Failures released by each tracker, collected race-free via the
/// pre-start engine_setup hook (callbacks run on the consumer thread; we
/// read after stop()).
struct Collected {
  std::vector<analysis::Failure> isis;
  std::vector<analysis::Failure> syslog;
};

GatewayOptions gateway_options(const analysis::PipelineCapture& s,
                               Collected* out) {
  GatewayOptions o;
  o.capture_start = s.period.begin;
  o.engine.tracker.reconstruct.period = s.period;
  if (out != nullptr) {
    o.engine_setup = [out](std::uint32_t, stream::StreamEngine& e) {
      e.isis_tracker().on_failure = [out](const analysis::Failure& f) {
        out->isis.push_back(f);
      };
      e.syslog_tracker().on_failure = [out](const analysis::Failure& f) {
        out->syslog.push_back(f);
      };
    };
  }
  return o;
}

ReplayOptions replay_options(const IngestGateway& gw, double rate) {
  ReplayOptions r;
  r.syslog_port = gw.syslog_port();
  r.lsp_port = gw.lsp_port();
  r.rate = rate;
  return r;
}

// UDP pacing for the exactness-sensitive tests: slow enough that the
// single-core kernel never overflows the 4 MB receive buffer (which would
// turn an exact-accounting test flaky), fast enough to finish in seconds.
constexpr double kPacedRate = 20000.0;

TEST(NetGateway, ZeroFaultReplayMatchesBatch) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(1);
  ASSERT_GT(s->sim.collector.size(), 0u);
  // The batch pipeline's reconstruction over the same capture.
  const analysis::Reconstructed batch =
      analysis::extract_and_reconstruct(s->view());
  ASSERT_GT(batch.isis_recon.failures.size(), 0u);
  ASSERT_GT(batch.syslog_recon.failures.size(), 0u);

  Collected got;
  IngestGateway gw(s->census, gateway_options(*s, &got));
  ASSERT_TRUE(gw.start().ok());
  const auto stats = replay_capture(s->sim.collector.lines(),
                                    s->sim.listener.records(),
                                    replay_options(gw, kPacedRate));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), 1));
  gw.stop();

  // Transport exactness: nothing lost, duplicated, or reordered anywhere.
  const GatewayCounters c = gw.counters();
  EXPECT_EQ(stats->syslog_sent, s->sim.collector.size());
  EXPECT_EQ(c.syslog_datagrams, stats->syslog_sent);
  EXPECT_EQ(c.syslog_queue_drops, 0u);
  EXPECT_EQ(c.syslog_enqueued, c.syslog_datagrams);
  EXPECT_EQ(c.lsp_frames, s->sim.listener.records().size());
  EXPECT_EQ(c.lsp_decode_errors, 0u);
  EXPECT_EQ(c.lsp_torn_tails, 0u);
  EXPECT_EQ(c.lsp_out_of_order, 0u);
  EXPECT_EQ(c.connections_accepted, 1u);
  EXPECT_EQ(c.connections_closed, 1u);

  // Analysis identity: the engine saw exactly the batch event stream.
  const stream::StreamEngine& engine = gw.engine();
  EXPECT_EQ(engine.syslog_events(), s->sim.collector.size());
  EXPECT_EQ(engine.lsp_events(), s->sim.listener.records().size());

  const auto batch_isis = sorted(batch.isis_recon.failures);
  const auto batch_syslog = sorted(batch.syslog_recon.failures);
  const auto live_isis = sorted(got.isis);
  const auto live_syslog = sorted(got.syslog);
  ASSERT_EQ(batch_isis.size(), live_isis.size());
  ASSERT_EQ(batch_syslog.size(), live_syslog.size());
  for (std::size_t i = 0; i < batch_isis.size(); ++i) {
    EXPECT_EQ(failure_key(batch_isis[i]), failure_key(live_isis[i])) << i;
  }
  for (std::size_t i = 0; i < batch_syslog.size(); ++i) {
    EXPECT_EQ(failure_key(batch_syslog[i]), failure_key(live_syslog[i])) << i;
  }

  // FSM counters agree exactly with the batch reconstruction.
  EXPECT_EQ(engine.isis_tracker().counters().double_downs,
            batch.isis_recon.double_downs);
  EXPECT_EQ(engine.isis_tracker().counters().double_ups,
            batch.isis_recon.double_ups);
  EXPECT_EQ(engine.syslog_tracker().counters().double_downs,
            batch.syslog_recon.double_downs);
  EXPECT_EQ(engine.syslog_tracker().counters().double_ups,
            batch.syslog_recon.double_ups);

  // The final checkpoint is the engine as of the last drained event.
  EXPECT_EQ(gw.final_checkpoint().events_ingested(),
            engine.events_ingested());
}

TEST(NetGateway, DetectionAlertsMatchInProcessStream) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(2);

  // In-process reference: the same capture through EventMux.
  stream::EngineOptions eo;
  eo.tracker.reconstruct.period = s->period;
  eo.detect.enabled = true;
  stream::StreamEngine ref(s->census, eo);
  stream::EventMux mux = stream::EventMux::over_vectors(
      s->sim.collector.lines(), s->sim.listener.records());
  while (std::optional<stream::StreamEvent> ev = mux.next()) ref.feed(*ev);
  ref.finish();
  ASSERT_GT(ref.detector().alerts_emitted(), 0u);

  GatewayOptions o = gateway_options(*s, nullptr);
  o.engine.detect.enabled = true;
  IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());
  const auto stats = replay_capture(s->sim.collector.lines(),
                                    s->sim.listener.records(),
                                    replay_options(gw, kPacedRate));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), 1));
  gw.stop();

  // final_alerts() is the checkpoint's count, readable only post-stop().
  // The checkpoint precedes the finish() that closes the last drift
  // window, so it may trail the detector's final total.
  EXPECT_EQ(gw.final_alerts(), gw.final_checkpoint().alerts_emitted());
  EXPECT_LE(gw.final_alerts(), gw.engine().detector().alerts_emitted());

  // Hard-down and flap-cusum alerts fire on message time, which the wire
  // format carries in full, so the served stream reproduces them exactly
  // (the two feed queues interleave differently, so emission order is
  // compared canonically). Drift windows roll on *arrival* time, which
  // the wire reconstructs at second resolution from the line timestamps
  // while the in-memory capture carries subsecond stamps — a window
  // boundary can shift an event, so drift alerts match only in volume.
  auto key = [](const detect::LinkAlert& a) {
    return std::make_tuple(a.link.value(), a.time.unix_millis(),
                           static_cast<int>(a.kind), a.score,
                           a.template_id.value());
  };
  auto message_time_driven = [](const std::vector<detect::LinkAlert>& v) {
    std::vector<detect::LinkAlert> out;
    for (const detect::LinkAlert& a : v) {
      if (a.kind != detect::AlertKind::kTemplateDrift) out.push_back(a);
    }
    return out;
  };
  const std::vector<detect::LinkAlert> ref_all =
      ref.detector().sink().snapshot();
  const std::vector<detect::LinkAlert> srv_all =
      gw.engine().detector().sink().snapshot();
  std::vector<detect::LinkAlert> want = message_time_driven(ref_all);
  std::vector<detect::LinkAlert> got = message_time_driven(srv_all);
  ASSERT_EQ(want.size(), got.size());
  std::sort(want.begin(), want.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(got.begin(), got.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(key(want[i]), key(got[i])) << "alert " << i;
  }
  const std::size_t ref_drift = ref_all.size() - want.size();
  const std::size_t srv_drift = srv_all.size() - got.size();
  EXPECT_GT(srv_drift, 0u);
  EXPECT_NEAR(static_cast<double>(srv_drift), static_cast<double>(ref_drift),
              0.05 * static_cast<double>(ref_drift) + 2.0);
}

struct LossRun {
  GatewayCounters counters;
  ReplayStats stats;
  std::uint64_t syslog_events = 0;
  std::uint64_t lsp_events = 0;
  std::size_t isis_failures = 0;
  std::size_t syslog_failures = 0;
};

LossRun run_with_loss(const analysis::PipelineCapture& s, double loss,
                      std::uint64_t seed) {
  Collected got;
  IngestGateway gw(s.census, gateway_options(s, &got));
  EXPECT_TRUE(gw.start().ok());
  ReplayOptions r = replay_options(gw, kPacedRate);
  r.faults.udp_loss = loss;
  r.faults.seed = seed;
  const auto stats =
      replay_capture(s.sim.collector.lines(), s.sim.listener.records(), r);
  EXPECT_TRUE(stats.ok());
  EXPECT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), 1));
  gw.stop();
  LossRun out;
  out.counters = gw.counters();
  out.stats = *stats;
  out.syslog_events = gw.engine().syslog_events();
  out.lsp_events = gw.engine().lsp_events();
  out.isis_failures = got.isis.size();
  out.syslog_failures = got.syslog.size();
  return out;
}

TEST(NetGateway, SeededUdpLossIsExactAndDeterministic) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(2);
  const std::size_t lines = s->sim.collector.size();
  ASSERT_GT(lines, 200u);

  const LossRun a = run_with_loss(*s, 0.05, 42);
  // Injector arithmetic is exact: every line was either written or counted
  // lost, and every written datagram reached the gateway (paced loopback).
  EXPECT_EQ(a.stats.syslog_sent + a.stats.syslog_lost, lines);
  EXPECT_GT(a.stats.syslog_lost, 0u);
  EXPECT_EQ(a.counters.syslog_datagrams, a.stats.syslog_sent);
  EXPECT_EQ(a.counters.syslog_enqueued + a.counters.syslog_queue_drops,
            a.counters.syslog_datagrams);
  EXPECT_EQ(a.counters.syslog_queue_drops, 0u);
  EXPECT_EQ(a.syslog_events, a.counters.syslog_enqueued);
  // The LSP feed rides TCP: untouched by UDP loss.
  EXPECT_EQ(a.lsp_events, s->sim.listener.records().size());

  // The paper's asymmetry, live: 5% extra syslog loss on top of the
  // simulated collection loss leaves strictly fewer syslog-derived
  // failures than the lossless LSP feed finds.
  ASSERT_GT(a.isis_failures, 0u);
  EXPECT_LT(a.syslog_failures, a.isis_failures);

  // Same seed, same everything.
  const LossRun b = run_with_loss(*s, 0.05, 42);
  EXPECT_EQ(b.stats.syslog_lost, a.stats.syslog_lost);
  EXPECT_EQ(b.counters.syslog_datagrams, a.counters.syslog_datagrams);
  EXPECT_EQ(b.syslog_events, a.syslog_events);
  EXPECT_EQ(b.isis_failures, a.isis_failures);
  EXPECT_EQ(b.syslog_failures, a.syslog_failures);
}

TEST(NetGateway, BackpressurePausesTcpInsteadOfDropping) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(3);
  const std::size_t n_records = s->sim.listener.records().size();
  ASSERT_GT(n_records, 300u);

  GatewayOptions o = gateway_options(*s, nullptr);
  o.lsp_queue_capacity = 64;
  o.consumer_slowdown = std::chrono::microseconds(100);
  IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());

  // LSP feed only: an unpaced TCP blast against a deliberately slow
  // consumer with a 64-deep queue must hit the high watermark.
  const std::vector<syslog::ReceivedLine> no_lines;
  const auto stats = replay_capture(no_lines, s->sim.listener.records(),
                                    replay_options(gw, 0.0));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(120), 1));
  gw.stop();

  const GatewayCounters c = gw.counters();
  EXPECT_GE(c.backpressure_pauses, 1u);
  // Backpressure, not loss: every frame sent arrives and feeds the engine.
  EXPECT_EQ(stats->lsp_frames_sent, n_records);
  EXPECT_EQ(c.lsp_frames, n_records);
  EXPECT_EQ(c.lsp_torn_tails, 0u);
  EXPECT_EQ(c.lsp_decode_errors, 0u);
  EXPECT_EQ(c.lsp_out_of_order, 0u);
  EXPECT_EQ(gw.engine().lsp_events(), n_records);
}

TEST(NetGateway, TcpResetsAreSurvivedAndAccounted) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(4);
  const std::size_t n_records = s->sim.listener.records().size();
  ASSERT_GT(n_records, 100u);

  IngestGateway gw(s->census, gateway_options(*s, nullptr));
  ASSERT_TRUE(gw.start().ok());
  ReplayOptions r = replay_options(gw, 0.0);
  r.faults.tcp_resets = 3;
  r.faults.seed = 7;
  const std::vector<syslog::ReceivedLine> no_lines;
  const auto stats =
      replay_capture(no_lines, s->sim.listener.records(), r);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60),
                                      1 + stats->reconnects));
  gw.stop();

  const GatewayCounters c = gw.counters();
  EXPECT_EQ(stats->tcp_resets, 3u);
  EXPECT_EQ(stats->reconnects, 3u);
  EXPECT_EQ(c.connections_accepted, 4u);
  EXPECT_EQ(c.connections_closed, 4u);
  // An RST may cut the stream at any byte: frames can vanish or tear, but
  // whatever survives decodes and everything is accounted.
  EXPECT_LE(c.lsp_frames, stats->lsp_frames_sent);
  EXPECT_LE(c.lsp_torn_tails, 3u);
  EXPECT_EQ(c.lsp_decode_errors, 0u);
  EXPECT_EQ(gw.engine().lsp_events(),
            c.lsp_frames - c.lsp_out_of_order);
}

TEST(NetGateway, StopDrainsBufferedEventsBeforeCheckpoint) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(5);
  ASSERT_GT(s->sim.collector.size(), 400u);

  GatewayOptions o = gateway_options(*s, nullptr);
  // A consumer ~50x slower than the sender guarantees the syslog queue is
  // deep when stop() arrives — the drain path must still feed every
  // enqueued event through the engine before the final checkpoint.
  o.consumer_slowdown = std::chrono::microseconds(500);
  IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());

  std::vector<syslog::ReceivedLine> lines(
      s->sim.collector.lines().begin(),
      s->sim.collector.lines().begin() + 400);
  const std::vector<isis::LspRecord> no_records;
  const auto stats =
      replay_capture(lines, no_records, replay_options(gw, kPacedRate));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  // Let the last datagrams land in the gateway queue, then pull the plug
  // the way the CLI's SIGINT handler does.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  gw.request_stop();
  gw.stop();

  const GatewayCounters c = gw.counters();
  EXPECT_EQ(c.syslog_datagrams, 400u);
  EXPECT_EQ(c.syslog_enqueued, 400u);
  // The whole buffered backlog drained through the engine.
  EXPECT_EQ(gw.engine().syslog_events(), c.syslog_enqueued);
  EXPECT_EQ(gw.final_checkpoint().events_ingested(),
            gw.engine().events_ingested());
}

TEST(NetGateway, UnpacedBurstIsAccountedForIncludingKernelDrops) {
  if (!sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario(6);
  IngestGateway gw(s->census, gateway_options(*s, nullptr));
  ASSERT_TRUE(gw.start().ok());

  // An unpaced burst from three senders at once, each several times the
  // capture, outruns the one IO thread, so the socket's receive buffer
  // overflows: whatever the kernel drops must be counted, not vanish.
  constexpr int kSenders = 3;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<FaultyChannel>> wires;
  for (int i = 0; i < kSenders; ++i) {
    wires.push_back(std::make_unique<FaultyChannel>(replay_options(gw, 0.0),
                                                    FaultParams{}));
    ASSERT_TRUE(wires.back()->open().ok());
  }
  std::vector<std::thread> senders;
  for (const auto& wire : wires) {
    senders.emplace_back([&s, w = wire.get()] {
      for (int round = 0; round < kRounds; ++round) {
        for (const syslog::ReceivedLine& line : s->sim.collector.lines()) {
          if (!w->send_syslog(line.line()).ok()) return;
        }
      }
      (void)w->finish();
    });
  }
  for (std::thread& t : senders) t.join();
  std::uint64_t sent = 0;
  for (const auto& wire : wires) sent += wire->stats().syslog_sent;
  ASSERT_EQ(sent, std::uint64_t{kSenders} * kRounds * s->sim.collector.size());
  FaultyChannel& wire = *wires.front();

  // End markers go out one at a time once the burst has had time to drain.
  // The first one read was queued behind every burst datagram, so it
  // carries the kernel's full drop count for the burst.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::uint64_t markers = 0;
  for (bool done = false; !done;) {
    ASSERT_LT(markers, 50u) << "no end marker got through";
    ASSERT_TRUE(wire.send_raw_datagram(kReplayEndMarker).ok());
    ++markers;
    done = gw.wait_replay_complete(std::chrono::milliseconds(500));
  }
  gw.stop();

  const GatewayCounters c = gw.counters();
  EXPECT_EQ(c.syslog_datagrams, c.syslog_enqueued + c.syslog_queue_drops);
  EXPECT_EQ(sent + markers,
            c.syslog_datagrams + c.end_markers + c.udp_kernel_drops);
  RecordProperty("kernel_drops", static_cast<int>(c.udp_kernel_drops));
}

TEST(NetGateway, StartFailsCleanlyOnUnusableAddress) {
  const Scenario s = scenario(1);
  GatewayOptions o = gateway_options(*s, nullptr);
  o.bind_host = "not-an-address";
  IngestGateway gw(s->census, o);
  EXPECT_FALSE(gw.start().ok());
  gw.stop();  // no threads were spawned; stop is a harmless no-op
}

}  // namespace
}  // namespace netfail::net
