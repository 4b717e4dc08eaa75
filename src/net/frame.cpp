#include "src/net/frame.hpp"

#include <algorithm>
#include <cstring>

namespace netfail::net {
namespace {

std::uint32_t read_u32be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t read_u64be(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(read_u32be(p)) << 32) | read_u32be(p + 4);
}

void append_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void append_u64be(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_u32be(out, static_cast<std::uint32_t>(v >> 32));
  append_u32be(out, static_cast<std::uint32_t>(v));
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  append_u32be(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_lsp_frame(std::vector<std::uint8_t>& out,
                      const isis::LspRecord& record) {
  append_u32be(out, static_cast<std::uint32_t>(8 + record.bytes.size()));
  append_u64be(out,
               static_cast<std::uint64_t>(record.received_at.unix_millis()));
  const std::span<const std::uint8_t> pdu = record.bytes.span();
  out.insert(out.end(), pdu.begin(), pdu.end());
}

Result<isis::LspRecord> decode_lsp_payload(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 8) {
    return make_error(ErrorCode::kTruncated,
                      "LSP frame payload shorter than its arrival timestamp");
  }
  isis::LspRecord record;
  record.received_at = TimePoint::from_unix_millis(
      static_cast<std::int64_t>(read_u64be(payload.data())));
  if (!kInputTimeRange.contains(record.received_at)) {
    return make_error(ErrorCode::kOutOfRange,
                      "LSP frame arrival time outside the accepted range");
  }
  record.bytes = ByteSlice::copy_of(payload.subspan(8));
  return record;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (corrupt_) return;
  // Compact lazily: only when the dead prefix dominates, so steady-state
  // decoding moves each byte at most twice.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::span<const std::uint8_t>> FrameDecoder::next() {
  if (corrupt_) return std::nullopt;
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buf_.data() + consumed_;
  const std::uint32_t len = read_u32be(head);
  if (len > max_payload_) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buffered() < kFrameHeaderBytes + len) return std::nullopt;
  consumed_ += kFrameHeaderBytes + len;
  return std::span<const std::uint8_t>(head + kFrameHeaderBytes, len);
}

std::size_t FrameDecoder::reset() {
  const std::size_t discarded = buffered();
  buf_.clear();
  consumed_ = 0;
  corrupt_ = false;
  return discarded;
}

}  // namespace netfail::net
