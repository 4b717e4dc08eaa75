// LSP capture files: persisting and reloading a listener's record stream.
//
// Format ("NFC1"): a 16-byte header, then one frame per record —
//   u64 arrival time (ms since Unix epoch, big endian)
//   u32 payload length
//   payload (raw IS-IS PDU bytes)
// Analogous to the MRT-style dumps PyRT wrote at CENIC; simple enough to
// parse from any language, self-describing enough to detect truncation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/common/result.hpp"
#include "src/isis/listener.hpp"

namespace netfail::io {

inline constexpr char kLspCaptureMagic[4] = {'N', 'F', 'C', '1'};

/// The longest frame payload a capture may hold. An IS-IS PDU carries its
/// length in 16 bits, so Lsp::decode_into could never accept a longer one.
inline constexpr std::uint32_t kMaxLspFrameBytes = 65535;

void write_lsp_capture(const std::vector<isis::LspRecord>& records,
                       std::ostream& out);
Status write_lsp_capture(const std::vector<isis::LspRecord>& records,
                         const std::string& path);

struct LspCaptureStats {
  std::size_t frames = 0;
  bool truncated_tail = false;  // file ended mid-frame; prefix was kept
};

/// Read a capture; returns records in file order. A truncated final frame
/// (cut anywhere after its first byte) is dropped (and flagged), matching
/// how one recovers a capture cut short by a listener crash. A frame whose
/// arrival time lies outside kInputTimeRange, precedes the previous
/// frame's (a listener records in arrival order), or whose length exceeds
/// kMaxLspFrameBytes, fails the whole read, so every capture read is
/// arrival-ordered. The header's
/// record count is a hint: the reader reserves no more records than the
/// rest of the input can hold.
///
/// Both overloads take the input as one buffer (a regular file mapped
/// read-only, a stream read to its end, see file_bytes.hpp) and walk its
/// frames with the one parser: every record's bytes are a slice of that
/// buffer, which lives as long as the last record that points into it.
Result<std::vector<isis::LspRecord>> read_lsp_capture(
    std::istream& in, LspCaptureStats* stats = nullptr);
Result<std::vector<isis::LspRecord>> read_lsp_capture(
    const std::string& path, LspCaptureStats* stats = nullptr);

}  // namespace netfail::io
