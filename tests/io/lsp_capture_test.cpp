#include "src/io/lsp_capture.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/isis/pdu.hpp"
#include "src/net/frame.hpp"
#include "tests/io/fifo_feed.hpp"
#include "tests/io/temp_dir.hpp"

namespace netfail::io {
namespace {

isis::LspRecord record(std::int64_t ms, std::uint32_t index) {
  isis::Lsp lsp;
  lsp.source = OsiSystemId::from_index(index);
  lsp.sequence = index + 1;
  lsp.hostname = "r" + std::to_string(index);
  return isis::LspRecord{TimePoint::from_unix_millis(ms),
                         ByteSlice::copy_of(lsp.encode())};
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
    EXPECT_TRUE(isis::Lsp::decode((*loaded)[i].bytes.span()).ok());
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

// ---- one parser, whatever the input -------------------------------------

/// `bytes` read as a capture from an istream, from a regular file (mapped)
/// and from a FIFO (no size, read to its end). The
/// three must agree: on the records and the stats, or on the error.
void expect_every_input_agrees(const std::string& bytes) {
  SCOPED_TRACE(testing::Message() << "capture of " << bytes.size() << " bytes");
  std::istringstream in(bytes);
  LspCaptureStats want_stats;
  const auto want = read_lsp_capture(in, &want_stats);

  TempDir dir;
  const std::string file = (dir.path() / "listener.nfc").string();
  std::ofstream(file, std::ios::binary) << bytes;
  LspCaptureStats file_stats;
  const auto from_file = read_lsp_capture(file, &file_stats);
  LspCaptureStats fifo_stats;
  const auto from_fifo = read_through_fifo(
      dir.path() / "listener.fifo", bytes, [&](const std::string& path) {
        return read_lsp_capture(path, &fifo_stats);
      });

  for (const auto* got : {&from_file, &from_fifo}) {
    ASSERT_EQ(got->ok(), want.ok());
    if (!want.ok()) {
      EXPECT_EQ(got->error().code, want.error().code);
      EXPECT_EQ(got->error().message, want.error().message);
      continue;
    }
    EXPECT_EQ(**got, *want);
  }
  if (want.ok()) {
    for (const LspCaptureStats* st : {&file_stats, &fifo_stats}) {
      EXPECT_EQ(st->frames, want_stats.frames);
      EXPECT_EQ(st->truncated_tail, want_stats.truncated_tail);
    }
  }
}

TEST(LspCapture, FileFifoAndStreamAgreeOnEveryHostileCase) {
  std::stringstream three;
  write_lsp_capture({record(1000, 1), record(2000, 2), record(3000, 3)},
                    three);
  const std::string whole = three.str();
  // Cut at every byte: no magic, a short header, a clean end between
  // frames, a torn frame header, a torn payload.
  for (std::size_t n = 0; n <= whole.size(); ++n) {
    expect_every_input_agrees(whole.substr(0, n));
    if (HasFatalFailure()) return;
  }
  expect_every_input_agrees("GARBAGE DATA HERE");
  for (const std::vector<isis::LspRecord>& records :
       std::vector<std::vector<isis::LspRecord>>{
           {record(1000, 1), record(3000, 2), record(2999, 3)},
           {record(1000, 1), record(1000, 2), record(1000, 3)},
           {record(-1000, 1)},
           {record(1000, 1),
            record(std::numeric_limits<std::int64_t>::min(), 2)},
           {record(1000, 1),
            record(std::numeric_limits<std::int64_t>::max(), 2)},
           {record(kInputTimeRange.end.unix_millis(), 1)},
           {record(kInputTimeRange.begin.unix_millis() - 1, 1)},
           {record(kInputTimeRange.begin.unix_millis(), 1)},
       }) {
    std::stringstream stream;
    write_lsp_capture(records, stream);
    expect_every_input_agrees(stream.str());
  }
  expect_every_input_agrees(
      capture_bytes(std::uint64_t{1} << 62, std::string(8, '\0')));
  const std::string ok_frame =
      frame_header(kMaxLspFrameBytes) + std::string(kMaxLspFrameBytes, 'x');
  expect_every_input_agrees(capture_bytes(1, ok_frame));
  expect_every_input_agrees(capture_bytes(
      2, ok_frame + frame_header(kMaxLspFrameBytes + 1) +
             std::string(kMaxLspFrameBytes + 1, 'x')));
  expect_every_input_agrees(capture_bytes(1, frame_header(0)));
}

TEST(LspCapture, TailIsFlaggedExactlyOffFrameBoundaries) {
  const std::vector<isis::LspRecord> records{record(1000, 1), record(2000, 2),
                                             record(3000, 3)};
  std::stringstream stream;
  write_lsp_capture(records, stream);
  const std::string whole = stream.str();
  // Frame k ends 16-byte header + k frames of 12 header bytes + payload in.
  std::vector<std::size_t> ends{16};
  for (const isis::LspRecord& rec : records) {
    ends.push_back(ends.back() + 12 + rec.bytes.size());
  }
  ASSERT_EQ(ends.back(), whole.size());

  TempDir dir;
  const std::string file = (dir.path() / "listener.nfc").string();
  for (std::size_t n = 16; n <= whole.size(); ++n) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << n);
    const std::string cut = whole.substr(0, n);
    std::size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= n) ++complete;
    const bool on_boundary = ends[complete] == n;

    std::istringstream in(cut);
    LspCaptureStats stream_stats;
    const auto from_stream = read_lsp_capture(in, &stream_stats);
    std::ofstream(file, std::ios::binary | std::ios::trunc) << cut;
    LspCaptureStats file_stats;
    const auto from_file = read_lsp_capture(file, &file_stats);
    LspCaptureStats fifo_stats;
    const auto from_fifo = read_through_fifo(
        dir.path() / "listener.fifo", cut, [&](const std::string& path) {
          return read_lsp_capture(path, &fifo_stats);
        });
    for (const auto* got : {&from_stream, &from_file, &from_fifo}) {
      ASSERT_TRUE(got->ok());
      ASSERT_EQ((*got)->size(), complete);
    }
    for (const LspCaptureStats* st :
         {&stream_stats, &file_stats, &fifo_stats}) {
      EXPECT_EQ(st->frames, complete);
      EXPECT_EQ(st->truncated_tail, !on_boundary);
    }
  }
}

TEST(LspCapture, RecordsShareTheFileBufferAndOutliveTheirVector) {
  std::stringstream stream;
  write_lsp_capture({record(1000, 1), record(2000, 2)}, stream);
  std::vector<isis::LspRecord> kept;
  {
    auto loaded = read_lsp_capture(stream);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 2u);
    // Both payloads lie in one buffer, back to back after a frame header.
    const std::string_view a = (*loaded)[0].bytes.view();
    const std::string_view b = (*loaded)[1].bytes.view();
    EXPECT_EQ(a.data() + a.size() + 12, b.data());
    kept.push_back((*loaded)[1]);
  }
  // The vector (and the other record) are gone; the copy still reads.
  EXPECT_EQ(kept[0], record(2000, 2));
  EXPECT_TRUE(isis::Lsp::decode(kept[0].bytes.span()).ok());
}

TEST(LspCapture, LiveRecordsEqualTheFileBackedRecordOfTheSameBytes) {
  // The same PDU reaches a record three ways: delivered by the simulator's
  // listener, decoded off the TCP feed's framing, and loaded from a
  // capture file. The first two own a block each, the last is a slice of
  // the file's buffer; all compare equal.
  isis::Listener listener;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const isis::LspRecord r = record(1000 * i, i);
    listener.deliver(r.received_at, r.bytes.span());
  }
  TempDir dir;
  const std::string path = (dir.path() / "listener.nfc").string();
  ASSERT_TRUE(write_lsp_capture(listener.records(), path).ok());
  const auto from_file = read_lsp_capture(path);
  ASSERT_TRUE(from_file.ok());

  std::vector<std::uint8_t> wire;
  for (const isis::LspRecord& r : listener.records()) {
    net::append_lsp_frame(wire, r);
  }
  net::FrameDecoder decoder;
  decoder.feed(wire);
  std::vector<isis::LspRecord> from_frames;
  while (const auto payload = decoder.next()) {
    auto rec = net::decode_lsp_payload(*payload);
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    from_frames.push_back(std::move(*rec));
  }
  EXPECT_EQ(*from_file, listener.records());
  EXPECT_EQ(from_frames, listener.records());
  EXPECT_EQ(from_frames, *from_file);
}

}  // namespace
}  // namespace netfail::io
