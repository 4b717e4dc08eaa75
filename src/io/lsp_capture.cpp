#include "src/io/lsp_capture.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>

namespace netfail::io {
namespace {

void put_u32(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> buf{
      static_cast<char>(v >> 24), static_cast<char>(v >> 16),
      static_cast<char>(v >> 8), static_cast<char>(v)};
  out.write(buf.data(), buf.size());
}

void put_u64(std::ostream& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

bool get_u32(std::istream& in, std::uint32_t& v) {
  std::array<char, 4> buf;
  if (!in.read(buf.data(), buf.size())) return false;
  v = (static_cast<std::uint32_t>(static_cast<unsigned char>(buf[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buf[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(buf[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(buf[3]));
  return true;
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  std::uint32_t hi = 0, lo = 0;
  if (!get_u32(in, hi) || !get_u32(in, lo)) return false;
  v = (std::uint64_t{hi} << 32) | lo;
  return true;
}

/// The bytes left in a seekable stream; 0 when it cannot seek.
std::uint64_t remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace

void write_lsp_capture(const std::vector<isis::LspRecord>& records,
                       std::ostream& out) {
  out.write(kLspCaptureMagic, sizeof kLspCaptureMagic);
  put_u32(out, 0);  // flags, reserved
  put_u64(out, records.size());
  for (const isis::LspRecord& rec : records) {
    put_u64(out, static_cast<std::uint64_t>(rec.received_at.unix_millis()));
    put_u32(out, static_cast<std::uint32_t>(rec.bytes.size()));
    out.write(reinterpret_cast<const char*>(rec.bytes.data()),
              static_cast<std::streamsize>(rec.bytes.size()));
  }
}

Status write_lsp_capture(const std::vector<isis::LspRecord>& records,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  write_lsp_capture(records, out);
  return out.good() ? Status::ok_status()
                    : Status(make_error(ErrorCode::kInternal,
                                        "write failed for " + path));
}

Result<std::vector<isis::LspRecord>> read_lsp_capture(std::istream& in,
                                                      LspCaptureStats* stats) {
  LspCaptureStats local;
  LspCaptureStats& st = stats ? *stats : local;

  char magic[4];
  if (!in.read(magic, sizeof magic) ||
      std::memcmp(magic, kLspCaptureMagic, sizeof magic) != 0) {
    return make_error(ErrorCode::kParseError, "not an NFC1 LSP capture");
  }
  std::uint32_t flags = 0;
  std::uint64_t declared = 0;
  if (!get_u32(in, flags) || !get_u64(in, declared)) {
    return make_error(ErrorCode::kTruncated, "capture header truncated");
  }

  // The declared count comes from the file: reserve no more frames than
  // the remaining bytes can hold (12-byte frame header, empty payload).
  constexpr std::uint64_t kMinFrameBytes = 12;
  std::vector<isis::LspRecord> out;
  out.reserve(static_cast<std::size_t>(
      std::min(declared, remaining_bytes(in) / kMinFrameBytes)));
  while (true) {
    std::uint64_t at_ms = 0;
    if (!get_u64(in, at_ms)) break;  // clean end of file
    const TimePoint at =
        TimePoint::from_unix_millis(static_cast<std::int64_t>(at_ms));
    if (!kInputTimeRange.contains(at)) {
      return make_error(ErrorCode::kOutOfRange,
                        "frame " + std::to_string(st.frames) +
                            ": arrival time outside the accepted range");
    }
    if (!out.empty() && at < out.back().received_at) {
      return make_error(ErrorCode::kParseError,
                        "frame " + std::to_string(st.frames) +
                            ": arrival time precedes the previous frame's");
    }
    std::uint32_t len = 0;
    if (!get_u32(in, len)) {
      st.truncated_tail = true;
      break;
    }
    if (len > kMaxLspFrameBytes) {
      return make_error(ErrorCode::kParseError,
                        "frame " + std::to_string(st.frames) + ": length " +
                            std::to_string(len) + " exceeds " +
                            std::to_string(kMaxLspFrameBytes) + " bytes");
    }
    std::vector<std::uint8_t> payload(len);
    if (!in.read(reinterpret_cast<char*>(payload.data()),
                 static_cast<std::streamsize>(len))) {
      st.truncated_tail = true;
      break;
    }
    out.push_back(isis::LspRecord{at, std::move(payload)});
    ++st.frames;
  }
  return out;
}

Result<std::vector<isis::LspRecord>> read_lsp_capture(const std::string& path,
                                                      LspCaptureStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  return read_lsp_capture(in, stats);
}

}  // namespace netfail::io
