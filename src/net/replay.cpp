#include "src/net/replay.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "src/net/gateway.hpp"

namespace netfail::net {
namespace {

// Frames are coalesced into writes of roughly this size: one syscall per
// ~20 LSPs instead of one per frame.
constexpr std::size_t kTcpFlushBytes = 32 * 1024;

// Datagrams per sendmmsg(2) batch. Matches the pacing quantum in
// replay_capture so paced replays flush exactly one batch per sleep.
constexpr std::size_t kUdpBatch = 32;

// End-of-replay markers sent after everything else (several, because the
// marker itself rides UDP).
constexpr int kEndMarkerRepeats = 3;

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kInternal, what + ": " + std::strerror(errno)};
}

}  // namespace

FaultyChannel::FaultyChannel(const ReplayOptions& options, FaultParams faults)
    : options_(options), faults_(faults), rng_(faults.seed) {}

Status FaultyChannel::open() {
  auto udp = udp_connect(options_.target_host, options_.syslog_port);
  if (!udp) return Status(udp.error());
  udp_ = std::move(*udp);
  return Status::ok_status();
}

Status FaultyChannel::connect_tcp() {
  auto tcp = tcp_connect(options_.target_host, options_.lsp_port);
  if (!tcp) return Status(tcp.error());
  tcp_ = std::move(*tcp);
  (void)set_nodelay(tcp_);
  return Status::ok_status();
}

void FaultyChannel::set_reset_points(std::vector<std::uint64_t> points) {
  reset_points_ = std::move(points);
  std::sort(reset_points_.begin(), reset_points_.end());
  next_reset_ = 0;
}

Status FaultyChannel::send_datagram(std::string_view payload) {
  // Counted as sent now; the bytes leave in the next flush. Send order is
  // exactly batch order, so the fault model's sequencing is preserved.
  udp_batch_.append(payload);
  udp_ends_.push_back(udp_batch_.size());
  ++stats_.syslog_sent;
  if (udp_ends_.size() >= kUdpBatch) return flush_udp();
  return Status::ok_status();
}

Status FaultyChannel::flush_udp() {
  if (udp_ends_.empty()) return Status::ok_status();
  std::vector<iovec> iov(udp_ends_.size());
  std::vector<mmsghdr> msgs(udp_ends_.size());
  for (std::size_t i = 0, begin = 0; i < udp_ends_.size(); ++i) {
    iov[i].iov_base = udp_batch_.data() + begin;
    iov[i].iov_len = udp_ends_[i] - begin;
    begin = udp_ends_[i];
    std::memset(&msgs[i], 0, sizeof(msgs[i]));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t done = 0;
  while (done < msgs.size()) {
    const int n = ::sendmmsg(udp_.get(), msgs.data() + done,
                             static_cast<unsigned>(msgs.size() - done), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(errno_error("sendmmsg udp batch"));
    }
    done += static_cast<std::size_t>(n);
  }
  udp_batch_.clear();
  udp_ends_.clear();
  return Status::ok_status();
}

Status FaultyChannel::send_raw_datagram(std::string_view payload) {
  // Raw datagrams (end markers) must hit the wire after everything batched.
  if (Status st = flush_udp(); !st.ok()) return st;
  for (;;) {
    const ssize_t n = ::send(udp_.get(), payload.data(), payload.size(), 0);
    if (n >= 0) return Status::ok_status();
    if (errno == EINTR) continue;
    return Status(errno_error("send udp datagram"));
  }
}

Status FaultyChannel::send_syslog(std::string_view line) {
  if (rng_.bernoulli(faults_.udp_loss)) {
    ++stats_.syslog_lost;
    return Status::ok_status();
  }
  if (held_valid_) {
    // Complete the adjacent swap: this message jumps the queue.
    if (Status st = send_datagram(line); !st.ok()) return st;
    held_valid_ = false;
    ++stats_.syslog_reordered;
    if (Status st = send_datagram(held_); !st.ok()) return st;
  } else if (rng_.bernoulli(faults_.udp_reorder)) {
    held_ = line;  // hold back until the next surviving message passes it
    held_valid_ = true;
    return Status::ok_status();
  } else {
    if (Status st = send_datagram(line); !st.ok()) return st;
  }
  if (rng_.bernoulli(faults_.udp_duplicate)) {
    ++stats_.syslog_duplicated;
    if (Status st = send_datagram(line); !st.ok()) return st;
  }
  return Status::ok_status();
}

Status FaultyChannel::flush_tcp(std::size_t watermark) {
  if (tcp_buf_.size() <= watermark) return Status::ok_status();
  if (!tcp_.valid()) {
    if (Status st = connect_tcp(); !st.ok()) return st;
  }
  std::size_t off = 0;
  while (off < tcp_buf_.size()) {
    const ssize_t n = ::send(tcp_.get(), tcp_buf_.data() + off,
                             tcp_buf_.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(errno_error("send tcp frame"));
    }
    off += static_cast<std::size_t>(n);
  }
  tcp_buf_.clear();
  return Status::ok_status();
}

Status FaultyChannel::send_lsp(const isis::LspRecord& record) {
  if (next_reset_ < reset_points_.size() &&
      reset_points_[next_reset_] == frame_index_) {
    ++next_reset_;
    // Push everything written so far to the kernel, then RST: whatever the
    // receiver has not yet read out of its socket buffer is discarded —
    // a mid-stream cut at an arbitrary byte, like a listener crash.
    if (Status st = flush_tcp(0); !st.ok()) return st;
    if (tcp_.valid()) {
      (void)set_abortive_close(tcp_);
      tcp_.reset();
      ++stats_.tcp_resets;
    }
    if (Status st = connect_tcp(); !st.ok()) return st;
    ++stats_.reconnects;
  }
  if (!tcp_.valid()) {
    if (Status st = connect_tcp(); !st.ok()) return st;
  }
  append_lsp_frame(tcp_buf_, record);
  ++frame_index_;
  ++stats_.lsp_frames_sent;
  return flush_tcp(kTcpFlushBytes);
}

Status FaultyChannel::finish() {
  if (held_valid_) {
    // Swap never completed (stream ended): the held datagram goes out last.
    held_valid_ = false;
    if (Status st = send_datagram(held_); !st.ok()) return st;
  }
  if (Status st = flush_udp(); !st.ok()) return st;
  if (Status st = flush_tcp(0); !st.ok()) return st;
  tcp_.reset();  // orderly FIN
  return Status::ok_status();
}

Result<ReplayStats> replay_capture(const std::vector<syslog::ReceivedLine>& lines,
                                   const std::vector<isis::LspRecord>& records,
                                   const ReplayOptions& options) {
  FaultyChannel channel(options, options.faults);
  if (Status st = channel.open(); !st.ok()) return st.error();

  if (options.faults.tcp_resets > 0 && records.size() > 2) {
    // Precompute the reset frame indices up front so the fault pattern is a
    // pure function of the seed, not of send timing.
    Rng rng(options.faults.seed ^ 0x9e3779b97f4a7c15ULL);
    const std::uint64_t max_index = records.size() - 1;
    const std::uint64_t want =
        std::min<std::uint64_t>(options.faults.tcp_resets, records.size() / 2);
    std::set<std::uint64_t> points;
    while (points.size() < want) {
      points.insert(static_cast<std::uint64_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(max_index))));
    }
    channel.set_reset_points({points.begin(), points.end()});
  }

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < lines.size() || j < records.size()) {
    // Merged arrival order, ties syslog-first: the EventMux convention.
    const bool take_syslog =
        j >= records.size() ||
        (i < lines.size() && lines[i].received_at <= records[j].received_at);
    if (take_syslog) {
      if (Status st = channel.send_syslog(lines[i++].line()); !st.ok()) {
        return st.error();
      }
    } else {
      if (Status st = channel.send_lsp(records[j++]); !st.ok()) {
        return st.error();
      }
    }
    ++sent;
    if (options.rate > 0 && sent % 32 == 0) {
      const auto target =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(sent) / options.rate));
      std::this_thread::sleep_until(target);
    }
  }
  if (Status st = channel.finish(); !st.ok()) return st.error();
  for (int k = 0; k < kEndMarkerRepeats; ++k) {
    if (Status st = channel.send_raw_datagram(kReplayEndMarker); !st.ok()) {
      return st.error();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return channel.stats();
}

}  // namespace netfail::net
