// The serve workload: the bundle replayed over loopback into an in-process
// sharded IngestGateway with detection on, plus an HttpServer over
// snapshot_engines, wired the way `netfail serve` wires them.
//
// Load is an open loop: replay_capture paces the merged stream at a fixed
// rate whatever the server does, and the query client sends GET /links on
// a fixed schedule, timing each reply from when the query was due. The two
// generator threads' own CPU and allocations are subtracted from the
// process totals, so what is left is the server's.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "harness.hpp"
#include "src/common/metrics.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"
#include "src/net/socket.hpp"
#include "src/stream/merge.hpp"
#include "src/svc/http.hpp"
#include "src/svc/snapshot.hpp"

namespace nfbench {

using namespace netfail;

namespace {

constexpr std::uint32_t kShards = 2;
constexpr double kReplayRate = 100000.0;  // msgs/s
// GET /links per second: at 150/s the busy bundle's /links service time
// nears the period and the open-loop backlog grows.
constexpr double kQueryRate = 50.0;
// Enough queries for a p99 with ten samples beyond it.
constexpr std::size_t kMinQueries = 1000;

std::string shard_metric(const char* base, std::uint32_t shard) {
  return shard == 0 ? std::string(base)
                    : std::string(base) + ".shard" + std::to_string(shard);
}

/// What one generator thread used, measured on that thread.
struct ThreadCost {
  double cpu_s = 0;
  std::uint64_t allocs = 0;
};

struct ClientResult {
  std::vector<double> latency_ms;  // from due time to full reply
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        // non-200, short read, or send error
  ThreadCost cost;
};

/// Read one HTTP/1.1 response (head + Content-Length body) from a blocking
/// socket; returns the status code, or 0 on a broken connection.
int read_response(int fd, std::string& buf) {
  std::size_t head_end = std::string::npos;
  char chunk[65536];
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return 0;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  int status = 0;
  if (std::sscanf(buf.c_str(), "HTTP/1.1 %d", &status) != 1) return 0;
  std::size_t length = 0;
  const std::size_t cl = buf.find("Content-Length: ");
  if (cl == std::string::npos || cl > head_end) return 0;
  length = std::strtoull(buf.c_str() + cl + 16, nullptr, 10);
  const std::size_t total = head_end + 4 + length;
  while (buf.size() < total) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return 0;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  buf.erase(0, total);
  return status;
}

void query_client(std::uint16_t port, const std::atomic<bool>& stop,
                  ClientResult& out) {
  auto fd = net::tcp_connect("127.0.0.1", port);
  if (!fd) {
    out.attempted = out.failed = 1;
    out.cost.cpu_s = thread_cpu_s();
    out.cost.allocs = allocs_this_thread();
    return;
  }
  (void)net::set_nodelay(*fd);
  static constexpr std::string_view kRequest =
      "GET /links HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::string buf;
  const std::int64_t start = now_ns();
  const double period_ns = 1e9 / kQueryRate;
  for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    if (stop.load(std::memory_order_acquire)) break;
    ++out.attempted;
    if (::send(fd->get(), kRequest.data(), kRequest.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(kRequest.size())) {
      ++out.failed;
      break;
    }
    const int status = read_response(fd->get(), buf);
    out.latency_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
    if (status != 200) {
      ++out.failed;
      if (status == 0) break;
    }
  }
  out.cost.cpu_s = thread_cpu_s();
  out.cost.allocs = allocs_this_thread();
}

}  // namespace

std::string alerts_sorted(const std::string& digest) {
  // A shard consumer feeds each drained batch syslog-first, then LSPs, so
  // on one link an IS-IS hard-down alert can land before or after the
  // syslog-driven alerts that the serial engine emitted in arrival order.
  // The alert lines ("D ...") are therefore compared as a set, in sorted
  // order at their original positions; every other line stays in order.
  std::vector<std::string_view> lines, alerts;
  std::string_view rest(digest);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::size_t len = eol == std::string_view::npos ? rest.size() : eol + 1;
    lines.push_back(rest.substr(0, len));
    if (lines.back().substr(0, 2) == "D ") alerts.push_back(lines.back());
    rest.remove_prefix(len);
  }
  std::sort(alerts.begin(), alerts.end());
  std::string out;
  out.reserve(digest.size());
  std::size_t next_alert = 0;
  for (const std::string_view line : lines) {
    out += line.substr(0, 2) == "D " ? alerts[next_alert++] : line;
  }
  return out;
}

namespace {

net::GatewayOptions gateway_options(const Bundle& b) {
  net::GatewayOptions o;
  o.shards = kShards;
  o.capture_start = b.period.begin;
  o.engine.tracker.reconstruct.period = b.period;
  o.engine.detect.enabled = true;
  return o;
}

svc::HttpOptions http_options(const Bundle& b) {
  svc::HttpOptions h;
  h.period_begin = b.period.begin;
  return h;
}

struct PassRecord {
  std::string json;
  std::size_t queries = 0;
  bool error = false;
};

PassRecord pass_error(const Status& st) {
  return {JsonObject().str("error", st.error().to_string()).done(), 0, true};
}

/// One serve pass.
PassRecord serve_pass(const Bundle& b, const std::string& expect_digest,
                      const std::string& work_dir) {
  for (std::uint32_t s = 0; s < kShards; ++s) {
    metrics::global().gauge(shard_metric("net.syslog_queue.peak", s)).reset();
    metrics::global().gauge(shard_metric("net.lsp_queue.peak", s)).reset();
  }
  std::vector<stream::ShardRun> runs(kShards);
  net::GatewayOptions o = gateway_options(b);
  o.engine_setup = [&runs](std::uint32_t shard, stream::StreamEngine& e) {
    collect_into(e, runs[shard]);
  };
  net::IngestGateway gateway(b.census, o);
  if (Status st = gateway.start(); !st.ok()) return pass_error(st);
  std::mutex snap_mu;
  std::vector<double> snapshot_ms;
  svc::HttpServer http(
      b.census,
      [&] {
        const std::int64_t t0 = now_ns();
        std::vector<stream::Checkpoint> cps = gateway.snapshot_engines();
        const std::lock_guard<std::mutex> lock(snap_mu);
        snapshot_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        return cps;
      },
      {}, http_options(b));
  if (Status st = http.start(); !st.ok()) {
    gateway.stop();
    return pass_error(st);
  }

  const double cpu0 = process_cpu_s();
  const double main_cpu0 = thread_cpu_s();
  const std::uint64_t allocs0 = allocs_total();
  const std::uint64_t main_allocs0 = allocs_this_thread();

  std::atomic<bool> stop_client{false};
  ClientResult client;
  std::thread client_thread(query_client, http.port(), std::cref(stop_client),
                            std::ref(client));

  net::ReplayOptions r;
  r.syslog_port = gateway.syslog_port();
  r.lsp_port = gateway.lsp_port();
  r.rate = kReplayRate;
  Result<net::ReplayStats> replay = net::ReplayStats{};
  ThreadCost gen;
  const std::int64_t t_start = now_ns();
  std::thread generator([&] {
    replay = net::replay_capture(b.collector.lines(), b.records, r);
    gen.cpu_s = thread_cpu_s();
    gen.allocs = allocs_this_thread();
  });
  generator.join();
  const std::int64_t t_sent = now_ns();
  const std::uint64_t min_conns = replay.ok() ? 1 + replay->reconnects : 1;
  const bool drained =
      replay.ok() &&
      gateway.wait_replay_complete(std::chrono::seconds(60), min_conns);
  const std::int64_t t_drained = now_ns();
  stop_client.store(true, std::memory_order_release);
  client_thread.join();

  const double cpu1 = process_cpu_s();
  const double main_cpu = thread_cpu_s() - main_cpu0;
  const std::uint64_t allocs1 = allocs_total();
  const std::uint64_t main_allocs = allocs_this_thread() - main_allocs0;

  // HttpServer::handle called directly: render cost without the socket.
  std::vector<double> handle_ms;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t t0 = now_ns();
    const svc::HttpServer::Response resp = http.handle("GET", "/links");
    handle_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (resp.status != 200) ++client.failed;
  }
  http.stop();
  gateway.stop();

  std::int64_t syslog_peak = 0, lsp_peak = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    syslog_peak = std::max(
        syslog_peak,
        metrics::global().gauge(shard_metric("net.syslog_queue.peak", s)).value());
    lsp_peak = std::max(
        lsp_peak,
        metrics::global().gauge(shard_metric("net.lsp_queue.peak", s)).value());
  }

  const net::GatewayCounters c = gateway.counters();
  std::uint64_t lsp_decodes = 0, syslog_max = 0, syslog_sum = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const stream::StreamEngine& e = gateway.engine(s);
    runs[s].alerts = e.detector().sink().snapshot();
    runs[s].engine = &e;
    lsp_decodes += e.lsp_events();
    syslog_max = std::max(syslog_max, e.syslog_events());
    syslog_sum += e.syslog_events();
  }
  const std::int64_t t_merge = now_ns();
  const stream::MergedRun merged = stream::merge_shard_runs(runs);
  const double merge_ms = static_cast<double>(now_ns() - t_merge) / 1e6;
  const std::string digest =
      alerts_sorted(stream::render_digest(merged, b.census));

  std::vector<const stream::StreamEngine*> engines;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    engines.push_back(&gateway.engine(s));
  }
  const std::string path =
      (std::filesystem::path(work_dir) / svc::kSnapshotFileName).string();
  const std::int64_t t_save = now_ns();
  const Status saved = svc::save_snapshot(path, engines, b.census);
  const double save_ms = static_cast<double>(now_ns() - t_save) / 1e6;
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  const bool snapshot_ok = saved.ok() && !ec;
  std::filesystem::remove(path, ec);

  const std::uint64_t sent = replay.ok() ? replay->syslog_sent : 0;
  const std::uint64_t frames = replay.ok() ? replay->lsp_frames_sent : 0;
  const double sent_s = static_cast<double>(t_sent - t_start) / 1e9;
  JsonObject out;
  out.num("snapshot_save_ms", save_ms)
      .integer("snapshot_bytes", snapshot_ok ? bytes : 0)
      .integer("snapshot_failed", snapshot_ok ? 0 : 1)
      .raw("snapshot_engines_ms", json_array(snapshot_ms))
      .raw("http_links_ms", json_array(handle_ms))
      .integer("replay_ok", replay.ok() ? 1 : 0)
      .integer("drained", drained ? 1 : 0)
      .integer("digest_match", digest == expect_digest ? 1 : 0)
      .integer("syslog_sent", sent)
      .integer("lsp_frames_sent", frames)
      .integer("syslog_datagrams", c.syslog_datagrams)
      .integer("syslog_queue_drops", c.syslog_queue_drops)
      .integer("lsp_frames", c.lsp_frames)
      .integer("lsp_out_of_order", c.lsp_out_of_order)
      .integer("backpressure_pauses", c.backpressure_pauses)
      .integer("syslog_queue_peak", static_cast<std::uint64_t>(syslog_peak))
      .integer("lsp_queue_peak", static_cast<std::uint64_t>(lsp_peak))
      .integer("lsp_decodes", lsp_decodes)
      .num("shard_skew",
           syslog_sum == 0 ? 0
                           : static_cast<double>(syslog_max) * kShards /
                                 static_cast<double>(syslog_sum))
      .integer("alerts", merged.alerts_emitted)
      .num("merge_ms", merge_ms)
      .num("replay_send_ms", sent_s * 1e3)
      .num("generator_late_ms",
           (sent_s - static_cast<double>(sent + frames) / kReplayRate) * 1e3)
      .num("drain_ms", static_cast<double>(t_drained - t_sent) / 1e6)
      .num("process_cpu_s", cpu1 - cpu0)
      .num("generator_cpu_s", gen.cpu_s)
      .num("client_cpu_s", client.cost.cpu_s)
      .num("main_cpu_s", main_cpu)
      .integer("process_allocs", allocs1 - allocs0)
      .integer("generator_allocs", gen.allocs)
      .integer("client_allocs", client.cost.allocs)
      .integer("main_allocs", main_allocs)
      .integer("queries_attempted", client.attempted)
      .integer("queries_failed", client.failed)
      .raw("query_ms", json_array(client.latency_ms));
  return {out.done(), client.latency_ms.size(), false};
}

}  // namespace

double serve_start_seconds(const Bundle& b) {
  const std::int64_t t0 = now_ns();
  net::IngestGateway gateway(b.census, gateway_options(b));
  svc::HttpServer http(
      b.census, [&gateway] { return gateway.snapshot_engines(); }, {},
      http_options(b));
  const bool ok = gateway.start().ok() && http.start().ok();
  const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
  http.stop();
  gateway.stop();
  return ok ? elapsed : -1;
}

std::string serve_workload(const Bundle& b, const std::string& expect_digest,
                           const std::string& work_dir) {
  std::string passes;
  std::size_t queries = 0;
  while (queries < kMinQueries) {
    if (!passes.empty()) passes += ", ";
    const PassRecord pass = serve_pass(b, expect_digest, work_dir);
    passes += pass.json;
    if (pass.error) break;
    queries += pass.queries;
  }
  return "{\"passes\": [" + passes + "]}";
}

}  // namespace nfbench
