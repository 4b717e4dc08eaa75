// net::Frame — the length-prefixed framing shared by the TCP LSP feed's
// sender and receiver.
//
// Wire layout per frame: u32 big-endian payload length, then the payload
// bytes. TCP is a byte stream, so the decoder reassembles frames across
// arbitrary read boundaries (a frame torn over many reads, several frames
// in one read) and survives a connection cut mid-frame: the partial tail is
// simply dropped on reset(), mirroring how the batch LSP capture reader
// drops a truncated final frame. A length above the decoder's maximum marks
// the stream corrupt — framing never resynchronizes on garbage.
//
// The LSP feed's payload is itself fixed-layout: u64 big-endian arrival
// time (ms since epoch) followed by the raw IS-IS PDU bytes — exactly the
// record an NFC1 capture file stores, so a served stream and a capture file
// are interchangeable observations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/result.hpp"
#include "src/isis/listener.hpp"

namespace netfail::net {

/// Default cap on a frame payload. LSP PDUs are bounded near 1.5 KB; 64 KiB
/// leaves headroom for other record types without letting a corrupt length
/// allocate gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 64 * 1024;

inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Append one frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Append one LSP-feed frame: payload = u64 BE arrival ms + PDU bytes.
void append_lsp_frame(std::vector<std::uint8_t>& out,
                      const isis::LspRecord& record);

/// Decode an LSP-feed frame payload back into a record, its PDU copied into
/// one block of its own. An arrival time outside kInputTimeRange is an
/// error.
Result<isis::LspRecord> decode_lsp_payload(
    std::span<const std::uint8_t> payload);

/// Incremental frame reassembly over a byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Append raw bytes read from the stream.
  void feed(std::span<const std::uint8_t> bytes);

  /// The next complete frame's payload, or nullopt when more bytes are
  /// needed. The returned span points into the decoder's buffer and is
  /// valid until the next feed()/next()/reset() call. Zero-length frames
  /// are legal and yield an empty (but engaged) span.
  std::optional<std::span<const std::uint8_t>> next();

  /// True once a frame header announced a payload above the maximum; feed()
  /// and next() are no-ops until reset().
  bool corrupt() const { return corrupt_; }

  /// Drop all partial state (reconnect / corrupt stream recovery). Returns
  /// the number of buffered bytes that were discarded mid-frame.
  std::size_t reset();

  /// Bytes currently buffered (incomplete frame tail).
  std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already handed out
  bool corrupt_ = false;
};

}  // namespace netfail::net
