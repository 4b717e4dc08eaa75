#include "src/io/lsp_capture.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

#include "src/io/file_bytes.hpp"

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

std::uint32_t get_u32(const char* p) {
  return (std::uint32_t{static_cast<unsigned char>(p[0])} << 24) |
         (std::uint32_t{static_cast<unsigned char>(p[1])} << 16) |
         (std::uint32_t{static_cast<unsigned char>(p[2])} << 8) |
         std::uint32_t{static_cast<unsigned char>(p[3])};
}

std::uint64_t get_u64(const char* p) {
  return (std::uint64_t{get_u32(p)} << 32) | get_u32(p + 4);
}

/// Both overloads: the frames of a capture read whole into `file`. Each
/// record's bytes are a slice of it; the pages behind the cursor are
/// dropped as it goes.
Result<std::vector<isis::LspRecord>> parse_capture(const ByteSlice& file,
                                                   LspCaptureStats* stats) {
  LspCaptureStats local;
  LspCaptureStats& st = stats ? *stats : local;
  const std::string_view in = file.view();

  constexpr std::size_t kHeaderBytes = 16;
  if (in.size() < sizeof kLspCaptureMagic ||
      std::memcmp(in.data(), kLspCaptureMagic, sizeof kLspCaptureMagic) != 0) {
    return make_error(ErrorCode::kParseError, "not an NFC1 LSP capture");
  }
  if (in.size() < kHeaderBytes) {
    return make_error(ErrorCode::kTruncated, "capture header truncated");
  }
  const std::uint64_t declared = get_u64(in.data() + 8);  // after the flags

  // The declared count comes from the file: reserve no more frames than
  // the remaining bytes can hold (12-byte frame header, empty payload).
  constexpr std::uint64_t kMinFrameBytes = 12;
  std::vector<isis::LspRecord> out;
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      declared, (in.size() - kHeaderBytes) / kMinFrameBytes)));
  ReleaseBehind release(in.data());
  for (std::size_t at = kHeaderBytes;;) {
    // No bytes left: a clean end of file. Fewer than an arrival time: the
    // last frame was cut inside its header.
    if (in.size() - at < 8) {
      st.truncated_tail = at != in.size();
      break;
    }
    const TimePoint arrival = TimePoint::from_unix_millis(
        static_cast<std::int64_t>(get_u64(in.data() + at)));
    at += 8;
    if (!kInputTimeRange.contains(arrival)) {
      return make_error(ErrorCode::kOutOfRange,
                        "frame " + std::to_string(st.frames) +
                            ": arrival time outside the accepted range");
    }
    if (!out.empty() && arrival < out.back().received_at) {
      return make_error(ErrorCode::kParseError,
                        "frame " + std::to_string(st.frames) +
                            ": arrival time precedes the previous frame's");
    }
    if (in.size() - at < 4) {
      st.truncated_tail = true;
      break;
    }
    const std::uint32_t len = get_u32(in.data() + at);
    at += 4;
    if (len > kMaxLspFrameBytes) {
      return make_error(ErrorCode::kParseError,
                        "frame " + std::to_string(st.frames) + ": length " +
                            std::to_string(len) + " exceeds " +
                            std::to_string(kMaxLspFrameBytes) + " bytes");
    }
    if (in.size() - at < len) {
      st.truncated_tail = true;
      break;
    }
    out.push_back(isis::LspRecord{arrival, file.substr(at, len)});
    release.consumed(in.substr(at, len));
    at += len;
    ++st.frames;
  }
  return out;
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
    out.write(rec.bytes.view().data(),
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
  return parse_capture(read_stream_bytes(in), stats);
}

Result<std::vector<isis::LspRecord>> read_lsp_capture(const std::string& path,
                                                      LspCaptureStats* stats) {
  Result<ByteSlice> file = read_file_bytes(path);
  if (!file) return file.error();
  return parse_capture(*file, stats);
}

}  // namespace netfail::io
