// net::ReplaySender — stream a captured observation bundle at an ingest
// gateway over real sockets, optionally through a wire-level fault
// injector.
//
// The replay walks the collector's syslog lines and the listener's LSP
// records merged by arrival time (ties syslog-first, the EventMux
// convention) and emits each as the gateway expects it: one UDP datagram
// per syslog line, one length-prefixed TCP frame per LSP record. With
// faults disabled, a replay is a faithful re-observation: the gateway
// reconstructs arrival times from the same rules the batch reader uses, so
// its analysis output matches the batch pipeline over the same bundle.
//
// FaultyChannel models the transports' real failure modes, seeded and
// deterministic:
//   - UDP loss / duplication / adjacent reordering (datagram networks do
//     all three; the paper's syslog loss figures are the motivation);
//   - TCP connection resets at precomputed frame indices — an abortive
//     close (RST) discards in-flight bytes, so the receiver sees a torn
//     or missing tail, exactly like a listener crash truncating a capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/rng.hpp"
#include "src/isis/listener.hpp"
#include "src/net/frame.hpp"
#include "src/net/socket.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::net {

struct FaultParams {
  double udp_loss = 0.0;       // P(datagram silently dropped)
  double udp_duplicate = 0.0;  // P(datagram sent twice)
  double udp_reorder = 0.0;    // P(datagram swapped with its successor)
  /// Abortive TCP closes spread across the frame stream (0 = never).
  std::uint32_t tcp_resets = 0;
  std::uint64_t seed = 1;
};

struct ReplayOptions {
  std::string target_host = "127.0.0.1";
  std::uint16_t syslog_port = 0;
  std::uint16_t lsp_port = 0;
  /// Pace the merged stream to this many messages per wall-clock second;
  /// 0 = as fast as the sockets accept.
  double rate = 0.0;
  FaultParams faults;
};

struct ReplayStats {
  std::uint64_t syslog_sent = 0;        // datagrams actually written
  std::uint64_t syslog_lost = 0;        // injector drops (never written)
  std::uint64_t syslog_duplicated = 0;  // extra copies written
  std::uint64_t syslog_reordered = 0;   // adjacent swaps performed
  std::uint64_t lsp_frames_sent = 0;
  std::uint64_t tcp_resets = 0;
  std::uint64_t reconnects = 0;
};

/// The wire between a replay and a gateway: owns both sockets and applies
/// seeded fault injection on the way out. Single-threaded.
class FaultyChannel {
 public:
  FaultyChannel(const ReplayOptions& options, FaultParams faults);

  /// Connect the UDP socket (always) and the TCP socket (on first frame).
  Status open();

  /// Queue one syslog line through the fault model.
  Status send_syslog(std::string_view line);
  /// Queue one LSP record; frames are batched and flushed opportunistically.
  Status send_lsp(const isis::LspRecord& record);

  /// Frame indices (0-based, in send order) at which to abortively reset
  /// the TCP connection *before* sending that frame.
  void set_reset_points(std::vector<std::uint64_t> points);

  /// Flush everything still held back (reorder buffer, TCP write buffer)
  /// and close the TCP connection with an orderly FIN.
  Status finish();

  /// Bypass fault injection entirely (end markers must arrive).
  Status send_raw_datagram(std::string_view payload);

  const ReplayStats& stats() const { return stats_; }

 private:
  Status connect_tcp();
  Status send_datagram(std::string_view payload);
  Status flush_udp();
  Status flush_tcp(std::size_t watermark);

  ReplayOptions options_;
  FaultParams faults_;
  Rng rng_;
  Fd udp_;
  Fd tcp_;
  /// Datagrams are batched into one sendmmsg(2) per ~32 messages: the
  /// syscall, not the copy, is the per-datagram cost that caps replay rate.
  /// The batch's payloads lie back to back in one reused buffer;
  /// `udp_ends_[i]` is where datagram i ends.
  std::string udp_batch_;
  std::vector<std::size_t> udp_ends_;
  std::vector<std::uint8_t> tcp_buf_;
  std::vector<std::uint64_t> reset_points_;  // sorted ascending
  std::size_t next_reset_ = 0;
  std::uint64_t frame_index_ = 0;
  bool held_valid_ = false;
  std::string held_;  // datagram held back for an adjacent swap
  ReplayStats stats_;
};

/// Replay a bundle (collector lines + listener records) at a gateway.
/// Blocks until fully sent; returns the injector's accounting.
Result<ReplayStats> replay_capture(const std::vector<syslog::ReceivedLine>& lines,
                                   const std::vector<isis::LspRecord>& records,
                                   const ReplayOptions& options);

}  // namespace netfail::net
