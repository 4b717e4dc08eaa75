#include "src/io/lsp_capture.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "src/isis/pdu.hpp"

namespace netfail::io {
namespace {

isis::LspRecord record(std::int64_t ms, std::uint32_t index) {
  isis::Lsp lsp;
  lsp.source = OsiSystemId::from_index(index);
  lsp.sequence = index + 1;
  lsp.hostname = "r" + std::to_string(index);
  return isis::LspRecord{TimePoint::from_unix_millis(ms), lsp.encode()};
}

TEST(LspCapture, RoundTrip) {
  const std::vector<isis::LspRecord> records{record(1000, 1), record(2000, 2),
                                             record(3000, 3)};
  std::stringstream stream;
  write_lsp_capture(records, stream);

  LspCaptureStats stats;
  const auto loaded = read_lsp_capture(stream, &stats);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_FALSE(stats.truncated_tail);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*loaded)[i].received_at, records[i].received_at);
    EXPECT_EQ((*loaded)[i].bytes, records[i].bytes);
    // And the payloads still decode as LSPs.
    EXPECT_TRUE(isis::Lsp::decode((*loaded)[i].bytes).ok());
  }
}

TEST(LspCapture, EmptyCapture) {
  std::stringstream stream;
  write_lsp_capture({}, stream);
  const auto loaded = read_lsp_capture(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(LspCapture, BadMagicRejected) {
  std::stringstream stream;
  stream << "GARBAGE DATA HERE";
  const auto loaded = read_lsp_capture(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);
}

TEST(LspCapture, FrameArrivingBeforeThePreviousIsRejected) {
  // Batch extraction would fold such a frame while the stream's EventMux
  // drops it, so `analyze` and `stream` would read the capture differently.
  std::stringstream stream;
  write_lsp_capture({record(1000, 1), record(3000, 2), record(2999, 3)},
                    stream);
  const auto loaded = read_lsp_capture(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);
  EXPECT_NE(loaded.error().message.find("frame 2"), std::string::npos)
      << loaded.error().message;
}

TEST(LspCapture, EqualArrivalTimesAreInOrder) {
  std::stringstream stream;
  write_lsp_capture({record(1000, 1), record(1000, 2), record(1000, 3)},
                    stream);
  const auto loaded = read_lsp_capture(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded->size(), 3u);
}

TEST(LspCapture, TruncatedTailRecovered) {
  const std::vector<isis::LspRecord> records{record(1000, 1), record(2000, 2)};
  std::stringstream stream;
  write_lsp_capture(records, stream);
  std::string data = stream.str();
  data.resize(data.size() - 5);  // cut into the last frame's payload

  std::stringstream cut(data);
  LspCaptureStats stats;
  const auto loaded = read_lsp_capture(cut, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_TRUE(stats.truncated_tail);
}

TEST(LspCapture, MissingFileReported) {
  EXPECT_FALSE(read_lsp_capture("/nonexistent/capture.nfc").ok());
}

TEST(LspCapture, NegativeEpochSurvives) {
  // Pre-1970 timestamps shouldn't occur, but the format must round-trip
  // signed times inside kInputTimeRange without mangling.
  const std::vector<isis::LspRecord> records{record(-1000, 1)};
  std::stringstream stream;
  write_lsp_capture(records, stream);
  const auto loaded = read_lsp_capture(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)[0].received_at, TimePoint::from_unix_millis(-1000));
}

TEST(LspCapture, ArrivalOutsideAcceptedRangeIsRejected) {
  // A hostile arrival time must fail the read, not reach the trackers'
  // arrival arithmetic (INT64_MIN minus the reorder horizon overflows).
  for (const std::int64_t ms :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(),
        kInputTimeRange.end.unix_millis(),
        kInputTimeRange.begin.unix_millis() - 1}) {
    SCOPED_TRACE(ms);
    const std::vector<isis::LspRecord> records{record(1000, 1),
                                               record(ms, 2)};
    std::stringstream stream;
    write_lsp_capture(records, stream);
    const auto loaded = read_lsp_capture(stream);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::kOutOfRange);
  }
  // The range's own ends are inclusive-exclusive.
  for (const std::int64_t ms :
       {kInputTimeRange.begin.unix_millis(),
        kInputTimeRange.end.unix_millis() - 1}) {
    const std::vector<isis::LspRecord> records{record(ms, 1)};
    std::stringstream stream;
    write_lsp_capture(records, stream);
    EXPECT_TRUE(read_lsp_capture(stream).ok()) << ms;
  }
}

/// Appends `v` as `bytes` big-endian bytes.
void put_be(std::string& out, std::uint64_t v, int bytes) {
  for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>(v >> shift));
  }
}

/// An NFC1 header declaring `count` records, then `frames` raw bytes.
std::string capture_bytes(std::uint64_t count, const std::string& frames) {
  std::string out(kLspCaptureMagic, sizeof kLspCaptureMagic);
  put_be(out, 0, 4);  // flags
  put_be(out, count, 8);
  return out + frames;
}

/// One frame header: arrival time 1000 ms, then a payload length.
std::string frame_header(std::uint32_t len) {
  std::string out;
  put_be(out, 1000, 8);
  put_be(out, len, 4);
  return out;
}

TEST(LspCapture, HugeDeclaredCountIsNotReserved) {
  // 24 bytes declaring 2^62 records: reserving that many once threw
  // std::length_error out of the reader. The count is only a hint.
  std::stringstream stream(capture_bytes(std::uint64_t{1} << 62,
                                         std::string(8, '\0')));
  LspCaptureStats stats;
  const auto loaded = read_lsp_capture(stream, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  EXPECT_TRUE(stats.truncated_tail);
}

TEST(LspCapture, FrameLongerThanAnIsisPduIsRejected) {
  // A length past 16 bits can never decode as an LSP; it once sized an
  // allocation (up to 4 GiB) before a byte of the payload was read.
  const std::string ok_frame =
      frame_header(kMaxLspFrameBytes) + std::string(kMaxLspFrameBytes, 'x');
  {
    std::stringstream stream(capture_bytes(1, ok_frame));
    const auto loaded = read_lsp_capture(stream);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ((*loaded)[0].bytes.size(), kMaxLspFrameBytes);
  }
  std::stringstream stream(capture_bytes(
      2, ok_frame + frame_header(kMaxLspFrameBytes + 1) +
             std::string(kMaxLspFrameBytes + 1, 'x')));
  const auto loaded = read_lsp_capture(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kParseError);
  EXPECT_NE(loaded.error().message.find("frame 1"), std::string::npos)
      << loaded.error().message;
}

}  // namespace
}  // namespace netfail::io
