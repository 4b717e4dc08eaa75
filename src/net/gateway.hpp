// net::IngestGateway — the socket front end of the streaming analysis
// engine: the paper's two collection artifacts as live network services.
//
//   - UDP syslog receiver: one RFC 3164 datagram per message, exactly the
//     transport real routers use (paper sect. 3.3). UDP does not ack and
//     the gateway does not block: when the bounded ingest queue is full the
//     datagram is dropped and *counted* — the collector-side bias the
//     syslogd availability literature warns about becomes a first-class
//     metric instead of a silent skew.
//   - TCP LSP feed: length-prefixed frames (net::Frame) carrying arrival
//     timestamp + raw IS-IS PDU bytes, the live analogue of an NFC1
//     capture. TCP is the reliable source, so it is *never* dropped:
//     above the queue's high watermark the gateway stops reading the
//     socket and lets TCP flow control push back to the sender; reading
//     resumes below the low watermark.
//
// One ingress lane, N analysis lanes (`GatewayOptions::shards = N`,
// DESIGN.md §14). A single IO event loop on one thread owns the one UDP
// socket, the TCP listener and every accepted connection, like the paper's
// one central syslog collector and one passive IS-IS listener. Sharding
// lives where the work is: each shard is an independent analysis lane —
// bounded MPSC queues, one consumer thread, one stream::StreamEngine
// partitioned by the stable link hash (stream::ShardMap) — so per-link
// analysis state never crosses a thread boundary. The IO thread parses each
// datagram once as it stamps its arrival with the socket's ArrivalCursor,
// then *routes* the line by that parse to the owning shard's queue, and the
// shard's engine extracts from the same parse; stamping before routing
// means received_at never depends on how lines were split across shards. Decoded
// LSP records are *broadcast* to every shard (the IS-IS extractor needs
// both endpoints' LSPs for its pair state): the out-of-order drop decision
// and the push to every shard queue happen at one point on the IO thread,
// so all shard queues carry the identical LSP sequence however many
// connections are live. Backpressure pauses a connection when ANY shard's
// LSP queue is above its high watermark and resumes when ALL are below the
// low one. stream::merge_shard_runs folds the per-shard results into output
// byte-identical to the serial single-shard run.
//
// With shards == 1 (the default) a zero-loss replay of a capture bundle
// yields analysis output byte-identical to the batch pipeline over the
// same files. Shutdown (stop(), or request_stop() from a SIGINT handler)
// stops the IO loop, drains all queues through the engines, and snapshots
// a final Checkpoint per shard before finish().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.hpp"
#include "src/config/census.hpp"
#include "src/net/event_loop.hpp"
#include "src/net/frame.hpp"
#include "src/net/queue.hpp"
#include "src/net/socket.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/sharded.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::net {

/// A replay sender marks end-of-stream with this out-of-band datagram (it
/// can never parse as a syslog message). Sent multiply because UDP.
inline constexpr std::string_view kReplayEndMarker = "<netfail:replay-end>";

struct GatewayOptions {
  /// Loopback by default: tests and CI sandboxes never open a visible port.
  std::string bind_host = "127.0.0.1";
  std::uint16_t syslog_port = 0;  // 0 = ephemeral, read back via accessor
  std::uint16_t lsp_port = 0;

  /// Number of analysis shards (consumer lanes). 1 = the serial gateway.
  /// The IO side is one loop and one UDP socket at any shard count.
  std::uint32_t shards = 1;

  /// Per-shard LSP queue capacity (each shard gets its own pair of queues;
  /// the syslog queue's capacity is fixed). LSP backpressure pauses reading
  /// above 3/4 of this and resumes below 1/4 of it.
  std::size_t lsp_queue_capacity = 1 << 16;

  /// Anchors syslog arrival-time reconstruction (the bundle's period
  /// begin, same as the batch reader's capture_start).
  TimePoint capture_start;
  stream::EngineOptions engine;

  /// Invoked on each freshly constructed shard engine, before any thread
  /// exists — the race-free place to install tracker callbacks (which then
  /// run on that shard's consumer thread; callbacks for different shards
  /// run concurrently, so shared sinks must be per-shard or synchronized).
  std::function<void(std::uint32_t shard, stream::StreamEngine&)> engine_setup;

  /// Artificial per-event consumer stall (wall-clock, not simulation
  /// time). Test/fault-injection knob: a deliberately slow consumer is how
  /// the backpressure path is exercised deterministically on a fast
  /// machine.
  std::chrono::microseconds consumer_slowdown{0};
};

/// Post-stop accounting snapshot. Exact: every datagram and frame the
/// kernel handed us lands in exactly one of these buckets. Written by the
/// IO thread only.
struct GatewayCounters {
  std::uint64_t syslog_datagrams = 0;    // received, excluding end markers
  std::uint64_t syslog_enqueued = 0;
  std::uint64_t syslog_queue_drops = 0;  // bounded-queue overflow
  std::uint64_t end_markers = 0;
  /// Datagrams (syslog lines and end markers alike) the kernel dropped
  /// from the UDP socket's full receive buffer before the gateway could
  /// read them. The kernel reports its running count with each datagram
  /// read (SO_RXQ_OVFL), so this covers drops up to the last datagram read.
  std::uint64_t udp_kernel_drops = 0;

  std::uint64_t lsp_frames = 0;          // complete frames decoded
  std::uint64_t lsp_decode_errors = 0;   // frame payload not a valid record
  std::uint64_t lsp_torn_tails = 0;      // connections cut mid-frame
  std::uint64_t lsp_corrupt_streams = 0; // framing violation, conn dropped
  /// Arrival time-travel: the frame was dropped at broadcast time, before
  /// reaching any shard, so one drop counts once regardless of shard count.
  std::uint64_t lsp_out_of_order = 0;

  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t backpressure_pauses = 0; // pause transitions, not duration
};

class IngestGateway {
 public:
  IngestGateway(const LinkCensus& census, GatewayOptions options);
  ~IngestGateway();

  IngestGateway(const IngestGateway&) = delete;
  IngestGateway& operator=(const IngestGateway&) = delete;

  /// Bind the sockets and spawn the IO + consumer threads. Fails (with no
  /// threads spawned) when a socket cannot be created or bound — e.g. a
  /// sandbox that forbids sockets; callers should surface, not crash.
  Status start();

  std::uint16_t syslog_port() const { return syslog_port_; }
  std::uint16_t lsp_port() const { return lsp_port_; }
  bool running() const { return running_; }
  std::uint32_t shard_count() const { return options_.shards; }
  const stream::ShardMap& shard_map() const { return shard_map_; }

  /// Block until a replay finished cleanly: at least one end marker seen,
  /// at least `min_connections` LSP connections accepted and all of them
  /// closed again, every shard's queues drained and its consumer idle.
  /// False on timeout (wall clock). `min_connections` guards the race
  /// where the end marker datagram is dispatched before the TCP accept it
  /// raced with.
  bool wait_replay_complete(std::chrono::milliseconds timeout,
                            std::uint64_t min_connections = 0);

  /// Async-signal-safe stop request (the CLI SIGINT handler calls this):
  /// flags the IO loop; the owner must still call stop() to join+drain.
  void request_stop();

  /// One read-consistent deep-copy Checkpoint per shard, each taken by that
  /// shard's consumer thread at a batch boundary (between drain batches,
  /// under the shard's wait-set lock — never mid-event, so every per-link
  /// row in the copy is exactly what an uninterrupted engine would report
  /// at that shard's high-water mark). Blocks until every shard has
  /// answered; callable from any thread while the gateway runs, and still
  /// valid before start() (direct snapshot) or after the consumers exit
  /// (returns the final checkpoints). This is the HTTP query API's
  /// `snapshot_fn` and the durable-checkpoint writer's source of truth.
  std::vector<stream::Checkpoint> snapshot_engines();

  /// Full shutdown: stop IO, close queues, drain every consumer through
  /// its engine, snapshot the final Checkpoints, finish the trackers.
  /// Idempotent.
  void stop();

  // ---- results, valid after stop() -----------------------------------------
  /// Shard 0's engine — the complete result for the serial (shards == 1)
  /// gateway; one partition of it otherwise (see engine(shard)).
  stream::StreamEngine& engine() { return engine(0); }
  const stream::StreamEngine& engine() const { return engine(0); }
  stream::StreamEngine& engine(std::uint32_t shard);
  const stream::StreamEngine& engine(std::uint32_t shard) const;
  /// Engine state as of the last event drained, before finish().
  const stream::Checkpoint& final_checkpoint() const {
    return final_checkpoint(0);
  }
  const stream::Checkpoint& final_checkpoint(std::uint32_t shard) const;
  /// Alerts the detection stage had emitted by the final checkpoints,
  /// summed across shards (0 with detection disabled). Like counters(),
  /// this is a post-stop() snapshot: the consumer threads feed the
  /// detectors, so the count is only coherent after the drain completes.
  std::uint64_t final_alerts() const;
  GatewayCounters counters() const;

 private:
  struct Connection {
    Fd fd;
    FrameDecoder decoder;
    bool paused = false;
  };

  /// One analysis lane: queues + consumer thread + partitioned engine.
  struct Shard {
    Shard(const LinkCensus& census, const GatewayOptions& options,
          const stream::ShardMap& map, std::uint32_t shard_index);

    std::uint32_t index = 0;
    WaitSet ws;
    BoundedMpsc<syslog::ReceivedLine> syslog_queue;
    BoundedMpsc<isis::LspRecord> lsp_queue;
    std::unique_ptr<stream::StreamEngine> engine;
    stream::Checkpoint final_checkpoint;
    std::thread consumer;
    bool consumer_idle NETFAIL_GUARDED_BY(ws.mu) = false;
    /// Live-snapshot handshake (snapshot_engines): a requester sets the
    /// flag and waits; the consumer answers at its next batch boundary.
    bool snapshot_requested NETFAIL_GUARDED_BY(ws.mu) = false;
    stream::Checkpoint snapshot_out NETFAIL_GUARDED_BY(ws.mu);
    /// Set (with final_checkpoint, under ws.mu) when the consumer exits, so
    /// a snapshot request can never hang on a thread that is gone.
    bool consumer_done NETFAIL_GUARDED_BY(ws.mu) = false;
  };

  Status bind_sockets();
  void consumer_thread(Shard& shard);
  void on_udp_readable();
  void on_accept();
  void on_connection_readable(Connection& conn);
  void extract_frames(Connection& conn);
  void close_connection(int fd);
  void maybe_resume_connections();
  bool any_lsp_queue_above_high() const;
  bool all_lsp_queues_below_low() const;
  bool replay_complete(std::uint64_t min_connections);

  const LinkCensus* census_;
  GatewayOptions options_;
  std::size_t high_watermark_ = 0;
  std::size_t low_watermark_ = 0;

  stream::ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // ---- the ingress lane: IO-thread-only once started --------------------
  EventLoop loop_;
  std::thread io_thread_;
  Fd udp_;
  Fd listener_;
  std::uint16_t syslog_port_ = 0;
  std::uint16_t lsp_port_ = 0;
  /// Arrival-time reconstruction for the socket's datagrams: the monotonic
  /// clamp runs over socket arrival order exactly as the batch reader's
  /// cursor runs over file order.
  syslog::ArrivalCursor cursor_;
  /// The kernel's running drop count as of the last datagram read.
  std::uint32_t kernel_drops_seen_ = 0;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// recvmmsg slots and per-shard routing buckets, reused sweep to sweep.
  std::vector<std::uint8_t> recv_buf_;
  std::vector<std::vector<syslog::ReceivedLine>> buckets_;
  /// The LSP broadcast's monotonic order guard (mirrors EventMux's policy).
  TimePoint last_lsp_arrival_;
  bool have_lsp_ = false;
  /// Read by callers only after stop() has joined the IO thread.
  GatewayCounters counters_;

  /// How many connections are read-paused; consumers poll this to know
  /// whether draining below the low watermark warrants waking the IO loop.
  std::atomic<int> paused_conns_{0};

  // Replay-completion state. Its own wait set: the IO thread updates it,
  // the watcher sleeps on it, and per-shard queue/idle state is polled
  // under the shards' own locks (never both at once — no ordering edge
  // between done_mu_ and any shard's ws.mu).
  sync::Mutex done_mu_;
  sync::CondVar done_cv_;
  std::uint64_t markers_seen_ NETFAIL_GUARDED_BY(done_mu_) = 0;
  std::uint64_t conns_open_ NETFAIL_GUARDED_BY(done_mu_) = 0;
  std::uint64_t conns_accepted_ NETFAIL_GUARDED_BY(done_mu_) = 0;

  bool running_ = false;
  bool stopped_ = false;
};

}  // namespace netfail::net
