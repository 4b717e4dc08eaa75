// svc::HttpServer — a minimal HTTP/1.1 query endpoint over net::EventLoop.
//
// `netfail serve` answers live queries while ingest runs:
//
//   GET /healthz            liveness + event counters
//   GET /metrics            the process metrics registry, text format
//   GET /links              per-link downtime/availability/flap/alert rows
//   GET /links/{name}       one link (percent-encoded canonical name)
//   GET /checkpoint         trigger an on-demand durable snapshot
//
// `?anonymize=1` on /links and /links/{name} remaps every name through an
// Anonymizer seeded with kDefaultAnonymizeSeed before rendering.
//
// No new dependencies: requests are reassembled from partial reads with
// the same buffer-and-scan discipline as net::FrameDecoder (bytes
// accumulate per connection until the blank line; oversized heads are
// rejected), and responses queue through EventLoop::set_want_write when a
// socket write would block.
//
// Locking discipline (the read-consistency contract, tested under TSan):
// the server owns no engine state. Every data request calls `snapshot_fn`,
// which returns one deep-copy Checkpoint per shard, each taken under that
// shard's consumer lock at a batch boundary (IngestGateway::
// snapshot_engines). A link's whole state lives on exactly one shard, so
// every per-link row is internally consistent — exactly the value an
// uninterrupted engine would report at that shard's high-water mark; the
// HTTP thread then renders from the immutable copies without further
// locking. Cross-shard skew is bounded by one drain batch and never mixes
// state *within* a link.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/time.hpp"
#include "src/config/census.hpp"
#include "src/net/event_loop.hpp"
#include "src/net/socket.hpp"
#include "src/stream/engine.hpp"
#include "src/svc/anonymize.hpp"

namespace netfail::svc {

struct HttpOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned; read back with port()
  /// Origin of the availability denominator: availability is
  /// 1 - downtime / (high_water - period_begin). With the default (epoch),
  /// availability degenerates to ~1 and downtime_ms is the useful figure.
  TimePoint period_begin;
};

class HttpServer {
 public:
  /// One read-consistent deep copy per shard (see file comment).
  using SnapshotFn = std::function<std::vector<stream::Checkpoint>()>;
  /// On-demand durable snapshot (GET /checkpoint).
  using CheckpointFn = std::function<Status()>;

  HttpServer(const LinkCensus& census, SnapshotFn snapshot_fn,
             CheckpointFn checkpoint_fn, HttpOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind and start serving on a dedicated loop thread.
  Status start();
  /// Bound port (valid after start(); the useful form with port 0).
  std::uint16_t port() const { return port_; }
  /// Stop the loop, join the thread, close every connection. Idempotent.
  void stop();

  struct Response {
    int status = 200;
    std::string content_type = "application/json";
    std::string body;
  };

  /// Pure request dispatch — everything after parsing, before
  /// serialization. Public so unit tests can drive routes without sockets.
  Response handle(std::string_view method, std::string_view target);

 private:
  struct Conn {
    net::Fd fd;
    std::string in;        // unparsed request bytes
    std::string out;       // unsent response bytes
    std::size_t out_pos = 0;
    bool close_after = false;
  };

  void on_listen_ready(short revents);
  void on_conn_ready(int fd, short revents);
  /// Parse any complete request head in `c.in`; returns false when the
  /// connection must be dropped.
  bool process_input(Conn& c);
  void queue_response(Conn& c, const Response& r, bool keep_alive);
  /// Flush `c.out`; arms/disarms POLLOUT. Returns false on a dead socket.
  bool flush_output(Conn& c);
  void close_conn(int fd);

  Response handle_links(std::string_view path, bool anonymize);
  Response handle_checkpoint();
  const Anonymizer& anonymizer();

  const LinkCensus* census_;
  SnapshotFn snapshot_fn_;
  CheckpointFn checkpoint_fn_;
  HttpOptions options_;

  net::EventLoop loop_;
  net::Fd listen_fd_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  bool running_ = false;
  std::map<int, Conn> conns_;  // loop-thread only
  std::optional<Anonymizer> anonymizer_;  // built lazily, loop-thread only
};

}  // namespace netfail::svc
