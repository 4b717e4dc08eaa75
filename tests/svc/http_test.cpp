// HttpServer tests in three tiers:
//
//   1. socket-free route units through the public handle() seam — status
//      codes, JSON shape, percent-decoding, anonymization, the 503 path;
//   2. read-consistency: a /links/{name} row must equal the stats computed
//      directly from the same Checkpoint the snapshot_fn handed over;
//   3. live-socket integration (skipped when the sandbox forbids sockets):
//      a real GET over loopback, keep-alive reuse, oversized-head 431, and
//      a gateway-backed run where snapshot_engines() is hammered from the
//      test thread during active UDP ingest (the TSan target), with the
//      last live row checked against the final post-stop checkpoint.
#include "src/svc/http.hpp"

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"
#include "src/net/socket.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/svc/snapshot.hpp"

namespace netfail::svc {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario scenario() {
  static Scenario s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(1));
  return s;
}

/// A serial engine fed the whole scenario (kept alive by the fixture); the
/// snapshot_fn below deep-copies it per request, the same discipline the
/// gateway applies per shard.
stream::StreamEngine& fed_engine() {
  static std::unique_ptr<stream::StreamEngine> engine = [] {
    const Scenario s = scenario();
    stream::EngineOptions options;
    options.tracker.reconstruct.period = s->period;
    options.detect.enabled = true;
    auto e = std::make_unique<stream::StreamEngine>(s->census, options);
    stream::EventMux mux = stream::EventMux::over_vectors(
        s->sim.collector.lines(), s->sim.listener.records());
    while (std::optional<stream::StreamEvent> ev = mux.next()) e->feed(*ev);
    return e;
  }();
  return *engine;
}

HttpServer::SnapshotFn engine_snapshot_fn() {
  return [] {
    std::vector<stream::Checkpoint> cps;
    cps.push_back(fed_engine().checkpoint());
    return cps;
  };
}

std::unique_ptr<HttpServer> make_server(
    HttpServer::CheckpointFn checkpoint_fn = nullptr) {
  HttpOptions o;
  o.period_begin = scenario()->period.begin;
  return std::make_unique<HttpServer>(scenario()->census, engine_snapshot_fn(),
                                      std::move(checkpoint_fn), o);
}

std::string percent_encode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '/') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

// ---- tier 1: socket-free route units ----------------------------------------

TEST(SvcHttp, HealthzReportsCountersAndLinkCount) {
  auto srv = make_server();
  const auto r = srv->handle("GET", "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"links\":" +
                        std::to_string(scenario()->census.size())),
            std::string::npos);
  EXPECT_NE(r.body.find("\"shards\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"events\":" +
                        std::to_string(fed_engine().events_ingested())),
            std::string::npos);
}

TEST(SvcHttp, MetricsIsPrometheusTextFormat) {
  auto srv = make_server();
  const auto r = srv->handle("GET", "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("text/plain"), std::string::npos);
}

TEST(SvcHttp, UnknownRouteIs404AndNonGetIs405) {
  auto srv = make_server();
  EXPECT_EQ(srv->handle("GET", "/nope").status, 404);
  EXPECT_EQ(srv->handle("GET", "/links/../etc/passwd").status, 404);
  EXPECT_EQ(srv->handle("POST", "/healthz").status, 405);
  EXPECT_EQ(srv->handle("DELETE", "/links").status, 405);
}

TEST(SvcHttp, LinksListsEveryCensusLinkOnce) {
  auto srv = make_server();
  const auto r = srv->handle("GET", "/links");
  ASSERT_EQ(r.status, 200);
  for (const CensusLink& cl : scenario()->census.links()) {
    EXPECT_NE(r.body.find("\"name\":\"" + cl.name + "\""), std::string::npos)
        << cl.name;
  }
  std::size_t rows = 0;
  for (std::size_t at = r.body.find("\"name\":"); at != std::string::npos;
       at = r.body.find("\"name\":", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, scenario()->census.size());
}

TEST(SvcHttp, SingleLinkLookupDecodesPercentEncoding) {
  auto srv = make_server();
  const std::string& name = scenario()->census.links()[0].name;
  // Canonical names contain ':' and '|'; both must round-trip encoded.
  const auto r = srv->handle("GET", "/links/" + percent_encode(name));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"name\":\"" + name + "\""), std::string::npos);
  EXPECT_NE(r.body.find("\"syslog\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"isis\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"alerts\":"), std::string::npos);
}

TEST(SvcHttp, UnknownLinkNameIs404) {
  auto srv = make_server();
  const auto r = srv->handle("GET", "/links/hostX:xe-9%2F9%2F9|hostY:xe-0");
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("unknown link"), std::string::npos);
}

TEST(SvcHttp, CheckpointWithoutStateDirIs503) {
  auto srv = make_server(nullptr);
  const auto r = srv->handle("GET", "/checkpoint");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("--state-dir"), std::string::npos);
}

TEST(SvcHttp, CheckpointInvokesTheConfiguredFn) {
  int calls = 0;
  auto srv = make_server([&calls] {
    ++calls;
    return Status::ok_status();
  });
  EXPECT_EQ(srv->handle("GET", "/checkpoint").status, 200);
  EXPECT_EQ(calls, 1);
  auto failing = make_server(
      [] { return Status(make_error(ErrorCode::kInternal, "disk full")); });
  const auto r = failing->handle("GET", "/checkpoint");
  EXPECT_EQ(r.status, 500);
  EXPECT_NE(r.body.find("disk full"), std::string::npos);
}

TEST(SvcHttp, AnonymizeFlagRewritesEveryName) {
  auto srv = make_server();
  const auto plain = srv->handle("GET", "/links");
  const auto anon = srv->handle("GET", "/links?anonymize=1");
  ASSERT_EQ(anon.status, 200);
  EXPECT_NE(plain.body, anon.body);
  // No original hostname may survive anonymization.
  for (const CensusLink& cl : scenario()->census.links()) {
    const std::string host(cl.name.substr(0, cl.name.find(':')));
    EXPECT_EQ(anon.body.find(host), std::string::npos) << host;
  }
  // Same seed, same pseudonyms: the mapping is stable across requests.
  EXPECT_EQ(anon.body, srv->handle("GET", "/links?anonymize=1").body);
  // Numeric payloads are untouched — only names are remapped.
  const auto count = [](const std::string& body, const char* key) {
    std::size_t n = 0;
    for (std::size_t at = body.find(key); at != std::string::npos;
         at = body.find(key, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count(plain.body, "\"failures\":"),
            count(anon.body, "\"failures\":"));
}

// ---- tier 2: read-consistency against the checkpoint ------------------------

TEST(SvcHttp, LinkRowMatchesTheCheckpointItWasRenderedFrom) {
  // The server's row for a link must equal the numbers computed directly
  // from the Checkpoint the snapshot_fn returned — same failure count,
  // same flap episodes, same alert totals. The engine is quiescent here,
  // so the checkpoint is reproducible and the equality is exact.
  auto srv = make_server();
  const stream::Checkpoint cp = fed_engine().checkpoint();
  const auto stats = cp.state().syslog_tracker().link_stats();
  ASSERT_FALSE(stats.empty());
  // Pick the busiest link so the row is non-trivial.
  std::size_t busiest = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].failures > stats[busiest].failures) busiest = i;
  }
  ASSERT_GT(stats[busiest].failures, 0u) << "scenario produced no failures";
  const CensusLink& cl = scenario()->census.link(stats[busiest].link);
  const auto r = srv->handle("GET", "/links/" + percent_encode(cl.name));
  ASSERT_EQ(r.status, 200);
  const std::string expected_failures =
      "\"failures\":" + std::to_string(stats[busiest].failures);
  EXPECT_NE(r.body.find(expected_failures), std::string::npos)
      << r.body << "\nwanted " << expected_failures;
  const std::int64_t ms = stats[busiest].downtime.total_millis();
  EXPECT_NE(r.body.find("\"downtime_ms\":" + std::to_string(ms)),
            std::string::npos);
}

// ---- tier 3: live sockets ---------------------------------------------------

/// Blocking GET over a fresh loopback connection; returns the raw response.
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& extra_headers = "") {
  auto fd = net::tcp_connect("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return {};
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: x\r\n" +
                          extra_headers + "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n =
        ::send(fd->get(), req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd->get(), buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  return resp;
}

TEST(SvcHttpSocket, ServesRealGetOverLoopback) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  auto srv = make_server();
  ASSERT_TRUE(srv->start().ok());
  ASSERT_NE(srv->port(), 0);
  const std::string resp = http_get(srv->port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: "), std::string::npos);
  srv->stop();
  srv->stop();  // idempotent
}

TEST(SvcHttpSocket, KeepAliveServesSequentialRequestsOnOneConnection) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  auto srv = make_server();
  ASSERT_TRUE(srv->start().ok());
  auto fd = net::tcp_connect("127.0.0.1", srv->port());
  ASSERT_TRUE(fd.ok());
  for (int i = 0; i < 3; ++i) {
    const std::string req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(::send(fd->get(), req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string resp;
    char buf[2048];
    // Read until the JSON body's closing newline; keep-alive means the
    // socket stays open, so parse rather than read-to-EOF.
    while (resp.find("\"status\":\"ok\"") == std::string::npos) {
      const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "server closed a keep-alive connection";
      resp.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  }
  srv->stop();
}

TEST(SvcHttpSocket, OversizedRequestHeadIsRejectedWith431) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  auto srv = make_server();
  ASSERT_TRUE(srv->start().ok());
  const std::string huge(20 * 1024, 'a');
  const std::string resp =
      http_get(srv->port(), "/healthz", "X-Filler: " + huge + "\r\n");
  EXPECT_NE(resp.find("431"), std::string::npos) << resp.substr(0, 120);
  srv->stop();
}

TEST(SvcHttpSocket, MalformedRequestLineIs400) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  auto srv = make_server();
  ASSERT_TRUE(srv->start().ok());
  auto fd = net::tcp_connect("127.0.0.1", srv->port());
  ASSERT_TRUE(fd.ok());
  const std::string junk = "this is not http\r\n\r\n";
  ASSERT_EQ(::send(fd->get(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  std::string resp;
  char buf[2048];
  ssize_t n = 0;
  while ((n = ::recv(fd->get(), buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(resp.find("400"), std::string::npos);
  srv->stop();
}

// ---- tier 3b: the gateway-backed read-consistency wall (TSan target) --------

TEST(SvcHttpGateway, LiveQueriesDuringIngestConvergeToTheFinalCheckpoint) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario();
  net::GatewayOptions o;
  o.capture_start = s->period.begin;
  o.engine.tracker.reconstruct.period = s->period;
  o.shards = 2;
  net::IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());

  HttpOptions ho;
  ho.period_begin = s->period.begin;
  HttpServer srv(
      s->census, [&gw] { return gw.snapshot_engines(); }, nullptr, ho);
  ASSERT_TRUE(srv.start().ok());

  // Hammer the snapshot handshake from this thread while UDP ingest runs
  // on the consumer threads — the TSan read-consistency wall. Event counts
  // must be monotonic across snapshots (each is a batch-boundary copy).
  std::atomic<bool> done{false};
  std::uint64_t last_events = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto cps = gw.snapshot_engines();
      std::uint64_t events = 0;
      for (const auto& cp : cps) events += cp.events_ingested();
      EXPECT_GE(events, last_events);
      last_events = events;
      const std::string resp = http_get(srv.port(), "/links");
      EXPECT_NE(resp.find("200 OK"), std::string::npos);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  net::ReplayOptions r;
  r.syslog_port = gw.syslog_port();
  r.lsp_port = gw.lsp_port();
  r.rate = 20000.0;
  const auto stats = net::replay_capture(s->sim.collector.lines(),
                                         s->sim.listener.records(), r);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), 1));

  // Ingest is quiescent (replay-end markers seen, queues drained): the live
  // row must now equal what the eventual final checkpoint reports.
  const auto live = gw.snapshot_engines();
  const std::string live_links = http_get(srv.port(), "/links");
  EXPECT_NE(live_links.find("200 OK"), std::string::npos);

  done.store(true, std::memory_order_relaxed);
  poller.join();
  srv.stop();  // before gateway stop: snapshot_fn must outlive requests
  gw.stop();

  std::uint64_t live_events = 0;
  std::uint64_t final_events = 0;
  for (const auto& cp : live) live_events += cp.events_ingested();
  for (std::uint32_t i = 0; i < 2; ++i) {
    final_events += gw.final_checkpoint(i).events_ingested();
  }
  EXPECT_EQ(live_events, final_events);
  // Same per-link rows: the quiescent live snapshot and the final
  // checkpoint must agree on every tracker stat.
  for (std::uint32_t i = 0; i < 2; ++i) {
    const auto a = live[i].state().syslog_tracker().link_stats();
    const auto b =
        gw.final_checkpoint(i).state().syslog_tracker().link_stats();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].failures, b[j].failures);
      EXPECT_EQ(a[j].flap_episodes, b[j].flap_episodes);
    }
  }
}

TEST(SvcHttpGateway, HealthzCountsEachEventOnceAcrossShards) {
  // Syslog lines are routed to one shard each, but every shard ingests the
  // whole broadcast LSP stream: /healthz must count the capture's events
  // once, not syslog + shards x LSPs.
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s = scenario();
  net::GatewayOptions o;
  o.capture_start = s->period.begin;
  o.engine.tracker.reconstruct.period = s->period;
  o.shards = 2;
  net::IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());
  HttpOptions ho;
  ho.period_begin = s->period.begin;
  HttpServer srv(
      s->census, [&gw] { return gw.snapshot_engines(); }, nullptr, ho);

  net::ReplayOptions r;
  r.syslog_port = gw.syslog_port();
  r.lsp_port = gw.lsp_port();
  r.rate = 20000.0;
  const auto stats = net::replay_capture(s->sim.collector.lines(),
                                         s->sim.listener.records(), r);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), 1));
  const auto health = srv.handle("GET", "/healthz");
  gw.stop();
  // Zero-fault precondition: every datagram arrived and was enqueued.
  const net::GatewayCounters c = gw.counters();
  ASSERT_EQ(c.syslog_datagrams, s->sim.collector.size());
  ASSERT_EQ(c.syslog_queue_drops, 0u);

  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"shards\":2"), std::string::npos);
  const std::size_t expected =
      s->sim.collector.size() + s->sim.listener.records().size();
  EXPECT_NE(health.body.find("\"events\":" + std::to_string(expected) + ","),
            std::string::npos)
      << health.body;
}

}  // namespace
}  // namespace netfail::svc
