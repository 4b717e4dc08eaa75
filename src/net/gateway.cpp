#include "src/net/gateway.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/metrics.hpp"
#include "src/common/sync.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::net {
namespace {

// recvmmsg batch geometry. RFC 3164 caps a packet at 1024 bytes; 2 KiB per
// slot leaves room for the simulator's longest rendered lines, and 64 slots
// amortize the syscall enough to clear the ingest throughput target on one
// core.
constexpr int kRecvBatch = 64;
constexpr std::size_t kMaxDatagram = 2048;
// Control-message room per slot: one SO_RXQ_OVFL drop count.
constexpr std::size_t kRecvControl = CMSG_SPACE(sizeof(std::uint32_t));

// How many items the consumer moves out of a queue per lock acquisition.
constexpr std::size_t kDrainBatch = 256;

// Per-shard syslog queue depth; a datagram arriving at a full queue is
// dropped and counted.
constexpr std::size_t kSyslogQueueCapacity = 1 << 16;

// SO_RCVBUF asked of the kernel for the UDP socket (best effort).
constexpr int kRecvBufferBytes = 4 << 20;

// Shard 0 keeps the legacy metric names (dashboards and tests depend on
// them, and the serial gateway *is* shard 0); other shards get a suffix.
std::string shard_metric(const char* base, std::uint32_t shard) {
  std::string name(base);
  if (shard != 0) {
    name += ".shard";
    name += std::to_string(shard);
  }
  return name;
}

metrics::Gauge* shard_gauge(const char* base, std::uint32_t shard) {
  return &metrics::global().gauge(shard_metric(base, shard));
}

/// Live in /metrics: the IO thread adds kernel drops as it learns of them.
metrics::Counter& kernel_drops_metric() {
  static metrics::Counter& c = metrics::global().counter("net.udp.kernel_drops");
  return c;
}

/// The socket's running drop count carried by a received datagram's
/// control data; the kernel attaches it once the count is nonzero.
bool rxq_drop_count(msghdr& hdr, std::uint32_t& out) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&hdr); c != nullptr;
       c = CMSG_NXTHDR(&hdr, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      std::memcpy(&out, CMSG_DATA(c), sizeof(out));
      return true;
    }
  }
  return false;
}

}  // namespace

IngestGateway::Shard::Shard(const LinkCensus& census,
                            const GatewayOptions& options,
                            const stream::ShardMap& map,
                            std::uint32_t shard_index)
    : index(shard_index),
      syslog_queue(ws, kSyslogQueueCapacity,
                   shard_gauge("net.syslog_queue.depth", shard_index),
                   shard_gauge("net.syslog_queue.peak", shard_index)),
      lsp_queue(ws, options.lsp_queue_capacity,
                shard_gauge("net.lsp_queue.depth", shard_index),
                shard_gauge("net.lsp_queue.peak", shard_index)) {
  stream::EngineOptions eo = options.engine;
  eo.partition = &map;
  eo.shard = shard_index;
  engine = std::make_unique<stream::StreamEngine>(census, eo);
}

IngestGateway::IngestGateway(const LinkCensus& census, GatewayOptions options)
    : census_(&census),
      options_(std::move(options)),
      shard_map_(census, options_.shards),
      cursor_(options_.capture_start),
      recv_buf_(kRecvBatch * kMaxDatagram),
      buckets_(options_.shards) {
  NETFAIL_ASSERT(options_.shards >= 1, "gateway needs at least one shard");
  high_watermark_ = options_.lsp_queue_capacity * 3 / 4;
  low_watermark_ = options_.lsp_queue_capacity / 4;
  NETFAIL_ASSERT(low_watermark_ < high_watermark_ &&
                     high_watermark_ <= options_.lsp_queue_capacity,
                 "lsp watermarks must satisfy low < high <= capacity");
  for (std::uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(census, options_, shard_map_, i));
    if (options_.engine_setup) options_.engine_setup(i, *shards_[i]->engine);
  }
}

IngestGateway::~IngestGateway() { stop(); }

Status IngestGateway::bind_sockets() {
  auto udp = udp_bind(options_.bind_host, options_.syslog_port);
  if (!udp) return Status(udp.error());
  (void)set_recv_buffer(*udp, kRecvBufferBytes);
  // Best effort too: without it the kernel's drops stay uncounted (0).
  (void)set_rxq_overflow(*udp);
  if (Status st = set_nonblocking(*udp); !st.ok()) return st;
  auto sport = local_port(*udp);
  if (!sport) return Status(sport.error());
  syslog_port_ = *sport;
  udp_ = std::move(*udp);

  auto listener = tcp_listen(options_.bind_host, options_.lsp_port, 16);
  if (!listener) return Status(listener.error());
  if (Status st = set_nonblocking(*listener); !st.ok()) return st;
  auto lport = local_port(*listener);
  if (!lport) return Status(lport.error());
  lsp_port_ = *lport;
  listener_ = std::move(*listener);
  return Status::ok_status();
}

Status IngestGateway::start() {
  NETFAIL_ASSERT(!running_ && !stopped_, "gateway started twice");
  if (Status st = bind_sockets(); !st.ok()) return st;
  loop_.add(udp_.get(), [this](short) { on_udp_readable(); });
  loop_.add(listener_.get(), [this](short) { on_accept(); });
  loop_.set_on_wake([this] { maybe_resume_connections(); });

  io_thread_ = std::thread([this] { loop_.run(); });
  for (auto& shard : shards_) {
    shard->consumer =
        std::thread(&IngestGateway::consumer_thread, this, std::ref(*shard));
  }
  running_ = true;
  return Status::ok_status();
}

void IngestGateway::on_udp_readable() {
  mmsghdr msgs[kRecvBatch];
  iovec iovs[kRecvBatch];
  alignas(cmsghdr) char control[kRecvBatch][kRecvControl];
  const std::uint32_t nshards = options_.shards;
  for (;;) {
    std::memset(msgs, 0, sizeof(msgs));
    for (int i = 0; i < kRecvBatch; ++i) {
      iovs[i].iov_base =
          recv_buf_.data() + static_cast<std::size_t>(i) * kMaxDatagram;
      iovs[i].iov_len = kMaxDatagram;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_control = control[i];
      msgs[i].msg_hdr.msg_controllen = kRecvControl;
    }
    const int n = ::recvmmsg(udp_.get(), msgs, kRecvBatch, 0, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    // The kernel's count only grows, in arrival order, so the batch's last
    // datagram carries the newest (the difference is unsigned: it wraps).
    if (std::uint32_t dropped = 0;
        n > 0 && rxq_drop_count(msgs[n - 1].msg_hdr, dropped)) {
      const std::uint32_t fresh = dropped - kernel_drops_seen_;
      kernel_drops_seen_ = dropped;
      counters_.udp_kernel_drops += fresh;
      kernel_drops_metric().inc(fresh);
    }
    // Peel markers out (rare, end-of-replay only), stamp each line's
    // arrival with the socket's cursor, route it to the owning shard's
    // bucket by the stable link hash, then hand each bucket to its queue
    // as one batch (one lock + one notify per shard per sweep). Stamping
    // precedes routing on purpose: the cursor's monotonic clamp runs over
    // the socket's arrival order, never over a shard's routed subset — a
    // line clamped here is clamped identically for every shard count.
    // ShardMap::shard_of is the IO-thread half of the partition invariant:
    // every event for a link lands on the shard whose engine owns that
    // link's state. stamp() parses the datagram once; routing, and later
    // the shard's engine, read that parse.
    for (std::vector<syslog::ReceivedLine>& bucket : buckets_) bucket.clear();
    for (int i = 0; i < n; ++i) {
      const std::string_view payload(
          reinterpret_cast<const char*>(iovs[i].iov_base), msgs[i].msg_len);
      if (payload == kReplayEndMarker) {
        ++counters_.end_markers;
        {
          sync::MutexLock lock(done_mu_);
          ++markers_seen_;
        }
        done_cv_.notify_all();
        continue;
      }
      syslog::ReceivedLine rec = cursor_.stamp(payload);
      buckets_[shard_map_.shard_of(rec)].push_back(std::move(rec));
    }
    for (std::uint32_t s = 0; s < nshards; ++s) {
      std::vector<syslog::ReceivedLine>& bucket = buckets_[s];
      if (bucket.empty()) continue;
      counters_.syslog_datagrams += bucket.size();
      const std::size_t taken =
          shards_[s]->syslog_queue.try_push_batch(bucket.data(), bucket.size());
      counters_.syslog_enqueued += taken;
      counters_.syslog_queue_drops += bucket.size() - taken;
    }
    if (n < kRecvBatch) return;
  }
}

void IngestGateway::on_accept() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (or transient accept error): wait for next event
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = Fd(fd);
    (void)set_nonblocking(conn->fd);
    ++counters_.connections_accepted;
    {
      sync::MutexLock lock(done_mu_);
      ++conns_accepted_;
      ++conns_open_;
    }
    done_cv_.notify_all();
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    loop_.add(fd, [this, raw](short) { on_connection_readable(*raw); });
  }
}

void IngestGateway::on_connection_readable(Connection& conn) {
  bool closed = false;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
    if (n > 0) {
      conn.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      extract_frames(conn);
      // Paused: leave further bytes in the socket buffer so TCP flow
      // control reaches the sender. Corrupt: no point reading more.
      if (conn.paused || conn.decoder.corrupt()) break;
      continue;
    }
    if (n == 0) {
      closed = true;  // orderly FIN
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    closed = true;  // ECONNRESET et al. — the fault injector's abortive close
    break;
  }
  if (conn.decoder.corrupt()) {
    ++counters_.lsp_corrupt_streams;
    closed = true;
  }
  if (closed) close_connection(conn.fd.get());
}

void IngestGateway::extract_frames(Connection& conn) {
  const std::uint32_t nshards = options_.shards;
  for (;;) {
    if (any_lsp_queue_above_high()) {
      if (!conn.paused) {
        conn.paused = true;
        ++counters_.backpressure_pauses;
        paused_conns_.fetch_add(1, std::memory_order_relaxed);
        loop_.set_want_read(conn.fd.get(), false);
      }
      return;
    }
    const auto payload = conn.decoder.next();
    if (!payload) return;
    ++counters_.lsp_frames;
    auto record = decode_lsp_payload(*payload);
    if (!record) {
      ++counters_.lsp_decode_errors;
      continue;
    }
    // Monotonic out-of-order drop, mirroring EventMux's policy: it never
    // fires on an in-order replay and protects the trackers when reconnect
    // races interleave old frames behind new ones. Decided here, once, on
    // the one IO thread, before the broadcast.
    if (have_lsp_ && record->received_at < last_lsp_arrival_) {
      ++counters_.lsp_out_of_order;
      continue;
    }
    last_lsp_arrival_ = record->received_at;
    have_lsp_ = true;
    // Broadcast: every shard's IS-IS extractor consumes the full LSP
    // stream (pair state spans both endpoints of a link); the ownership
    // filter is applied per transition inside the engine. Every shard
    // queue therefore carries the identical frame sequence. Copy to all
    // shards but the last (a copy shares the PDU's one block), move into
    // the last. push_wait, not try_push: TCP frames are the reliable
    // source, and the watermark check above already bounds occupancy
    // (this thread is the only LSP producer). A refusal means a closed
    // queue (shutdown) — the rest of the stream is moot then anyway.
    for (std::uint32_t s = 0; s + 1 < nshards; ++s) {
      isis::LspRecord copy = *record;
      if (!shards_[s]->lsp_queue.push_wait(std::move(copy))) return;
    }
    if (!shards_[nshards - 1]->lsp_queue.push_wait(std::move(*record))) return;
  }
}

void IngestGateway::close_connection(int fd) {
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    Connection& conn = **it;
    if (conn.fd.get() != fd) continue;
    if (conn.decoder.corrupt()) {
      (void)conn.decoder.reset();
    } else if (conn.decoder.buffered() > 0) {
      ++counters_.lsp_torn_tails;  // connection cut mid-frame
    }
    if (conn.paused) paused_conns_.fetch_sub(1, std::memory_order_relaxed);
    loop_.remove(fd);
    ++counters_.connections_closed;
    connections_.erase(it);
    {
      sync::MutexLock lock(done_mu_);
      --conns_open_;
    }
    done_cv_.notify_all();
    return;
  }
}

bool IngestGateway::any_lsp_queue_above_high() const {
  for (const auto& shard : shards_) {
    if (shard->lsp_queue.above_high_watermark(high_watermark_)) return true;
  }
  return false;
}

bool IngestGateway::all_lsp_queues_below_low() const {
  for (const auto& shard : shards_) {
    if (!shard->lsp_queue.below_low_watermark(low_watermark_)) return false;
  }
  return true;
}

void IngestGateway::maybe_resume_connections() {
  if (paused_conns_.load(std::memory_order_relaxed) == 0) return;
  // ALL shards below low, mirroring the ANY-above-high pause: a resumed
  // connection broadcasts into every queue, so one hot shard must keep
  // every producer paused or the slow consumer falls further behind.
  if (!all_lsp_queues_below_low()) return;
  // Drain each paused connection's decoder backlog first; only re-arm the
  // socket if that did not immediately push us back above the watermark.
  std::vector<int> dead;
  for (auto& conn : connections_) {
    if (!conn->paused) continue;
    conn->paused = false;
    paused_conns_.fetch_sub(1, std::memory_order_relaxed);
    extract_frames(*conn);
    if (conn->decoder.corrupt()) {
      ++counters_.lsp_corrupt_streams;
      dead.push_back(conn->fd.get());
      continue;
    }
    if (!conn->paused) loop_.set_want_read(conn->fd.get(), true);
  }
  for (const int fd : dead) close_connection(fd);
}

void IngestGateway::consumer_thread(Shard& shard) {
  std::vector<syslog::ReceivedLine> lines;
  std::vector<isis::LspRecord> records;
  lines.reserve(kDrainBatch);
  records.reserve(kDrainBatch);

  metrics::Counter& fed_syslog = metrics::global().counter(
      shard_metric("net.consumer.syslog_fed", shard.index));
  metrics::Counter& fed_lsp = metrics::global().counter(
      shard_metric("net.consumer.lsp_fed", shard.index));

  sync::UniqueLock lock(shard.ws.mu);
  for (;;) {
    // Live-snapshot handshake: answered here, between drain batches, so the
    // deep copy always lands on an event boundary (one branch per batch —
    // off the per-event hot path).
    if (shard.snapshot_requested) {
      shard.snapshot_out = shard.engine->checkpoint();
      shard.snapshot_requested = false;
      shard.ws.cv.notify_all();
    }
    lines.clear();
    records.clear();
    while (lines.size() < kDrainBatch && !shard.syslog_queue.empty_locked()) {
      lines.push_back(shard.syslog_queue.pop_locked());
    }
    while (records.size() < kDrainBatch && !shard.lsp_queue.empty_locked()) {
      records.push_back(shard.lsp_queue.pop_locked());
    }
    if (lines.empty() && records.empty()) {
      if (shard.syslog_queue.closed_locked() &&
          shard.lsp_queue.closed_locked()) {
        break;
      }
      shard.consumer_idle = true;
      shard.ws.cv.notify_all();  // producers blocked in push_wait
      shard.ws.cv.wait(lock);
      shard.consumer_idle = false;
      continue;
    }
    lock.unlock();

    // Lines arrive pre-stamped (IO-thread cursor) and LSP records
    // pre-filtered (broadcast-time order guard): the consumer is a pure
    // feed loop, so nothing here can make one shard's view diverge from
    // another's.
    for (const syslog::ReceivedLine& rec : lines) {
      shard.engine->feed_syslog(rec);
      fed_syslog.inc();
      if (options_.consumer_slowdown.count() > 0) {
        std::this_thread::sleep_for(options_.consumer_slowdown);
      }
    }
    for (const isis::LspRecord& record : records) {
      shard.engine->feed_lsp(record);
      fed_lsp.inc();
      if (options_.consumer_slowdown.count() > 0) {
        std::this_thread::sleep_for(options_.consumer_slowdown);
      }
    }

    // We may just have drained below the low watermark: nudge the IO
    // loop, which resumes paused connections once ALL queues are low.
    if (paused_conns_.load(std::memory_order_relaxed) > 0 &&
        shard.lsp_queue.below_low_watermark(low_watermark_)) {
      loop_.wake();
    }
    lock.lock();
  }
  // Queues closed and drained: the engine is final. Take the final
  // checkpoint while still holding the lock and flip consumer_done, so a
  // snapshot request racing the shutdown is answered with the final state
  // instead of hanging on a thread that is gone.
  shard.final_checkpoint = shard.engine->checkpoint();
  shard.snapshot_requested = false;
  shard.consumer_done = true;
  shard.ws.cv.notify_all();
  lock.unlock();
  shard.engine->finish();
}

std::vector<stream::Checkpoint> IngestGateway::snapshot_engines() {
  std::vector<stream::Checkpoint> out;
  out.reserve(shards_.size());
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    sync::UniqueLock lock(shard.ws.mu);
    if (shard.consumer_done) {
      // The consumer exited: its final (pre-finish) checkpoint IS the
      // resumable state — re-checkpointing the finished engine would bake
      // the drain into the snapshot.
      out.push_back(shard.final_checkpoint);
      continue;
    }
    if (!running_) {
      // Pre-start: no consumer thread exists, the engine is ours to read.
      out.push_back(shard.engine->checkpoint());
      continue;
    }
    shard.snapshot_requested = true;
    shard.ws.cv.notify_all();
    while (shard.snapshot_requested && !shard.consumer_done) {
      shard.ws.cv.wait(lock);
    }
    out.push_back(shard.consumer_done ? shard.final_checkpoint
                                      : shard.snapshot_out);
  }
  return out;
}

bool IngestGateway::replay_complete(std::uint64_t min_connections) {
  {
    sync::MutexLock lock(done_mu_);
    if (markers_seen_ == 0 || conns_accepted_ < min_connections ||
        conns_open_ != 0) {
      return false;
    }
  }
  // Per-shard state under each shard's own lock — never while holding
  // done_mu_, so there is no ordering edge between the two mutexes.
  for (const auto& sp : shards_) {
    Shard& shard = *sp;
    sync::MutexLock lock(shard.ws.mu);
    if (!shard.syslog_queue.empty_locked() || !shard.lsp_queue.empty_locked() ||
        !shard.consumer_idle) {
      return false;
    }
  }
  return true;
}

bool IngestGateway::wait_replay_complete(std::chrono::milliseconds timeout,
                                         std::uint64_t min_connections) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Periodic re-check (~10ms) instead of one shared condition variable:
  // the predicate spans done_mu_ plus every shard's wait set, and a timed
  // poll keeps those locks strictly un-nested.
  for (;;) {
    if (replay_complete(min_connections)) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return replay_complete(min_connections);
    const auto next = std::min(deadline, now + std::chrono::milliseconds(10));
    sync::UniqueLock lock(done_mu_);
    (void)done_cv_.wait_until(lock, next);
  }
}

void IngestGateway::request_stop() { loop_.stop(); }

void IngestGateway::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!running_) return;

  loop_.stop();
  if (io_thread_.joinable()) io_thread_.join();
  // Connections still open at shutdown: account their partial tails the
  // same way a mid-frame cut is accounted.
  for (const auto& conn : connections_) {
    if (!conn->decoder.corrupt() && conn->decoder.buffered() > 0) {
      ++counters_.lsp_torn_tails;
    }
  }
  // No producers remain: close the queues and let each consumer drain
  // whatever is buffered through its engine before checkpointing.
  for (auto& shard : shards_) {
    shard->syslog_queue.close();
    shard->lsp_queue.close();
  }
  for (auto& shard : shards_) {
    if (shard->consumer.joinable()) shard->consumer.join();
  }

  connections_.clear();
  udp_.reset();
  listener_.reset();
  running_ = false;

  metrics::Registry& m = metrics::global();
  m.counter("net.syslog.datagrams").inc(counters_.syslog_datagrams);
  m.counter("net.syslog.queue_drops").inc(counters_.syslog_queue_drops);
  m.counter("net.lsp.frames").inc(counters_.lsp_frames);
  m.counter("net.lsp.torn_tails").inc(counters_.lsp_torn_tails);
  m.counter("net.lsp.out_of_order").inc(counters_.lsp_out_of_order);
  m.counter("net.connections.accepted").inc(counters_.connections_accepted);
  m.counter("net.backpressure.pauses").inc(counters_.backpressure_pauses);
}

stream::StreamEngine& IngestGateway::engine(std::uint32_t shard) {
  NETFAIL_ASSERT(shard < shards_.size(), "shard index out of range");
  return *shards_[shard]->engine;
}

const stream::StreamEngine& IngestGateway::engine(std::uint32_t shard) const {
  NETFAIL_ASSERT(shard < shards_.size(), "shard index out of range");
  return *shards_[shard]->engine;
}

const stream::Checkpoint& IngestGateway::final_checkpoint(
    std::uint32_t shard) const {
  NETFAIL_ASSERT(stopped_, "final checkpoint is taken during stop()");
  NETFAIL_ASSERT(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->final_checkpoint;
}

std::uint64_t IngestGateway::final_alerts() const {
  NETFAIL_ASSERT(stopped_, "final_alerts() is a post-stop() snapshot");
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->final_checkpoint.alerts_emitted();
  }
  return total;
}

GatewayCounters IngestGateway::counters() const {
  // The IO thread writes the counters lock-free; they are only coherent
  // once it has joined.
  NETFAIL_ASSERT(!running_, "counters() is a post-stop() snapshot");
  return counters_;
}

}  // namespace netfail::net
