// The length-prefix codec must survive everything a TCP byte stream can do
// to a frame: tear it across arbitrary read boundaries, pack several into
// one read, cut it mid-header, end it mid-payload — and must refuse to
// resynchronize on a corrupt length.
#include "src/net/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace netfail::net {
namespace {

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

TEST(Frame, RoundTripsSingleFrame) {
  std::vector<std::uint8_t> wire;
  const auto payload = payload_of(100);
  append_frame(wire, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 100);

  FrameDecoder dec;
  dec.feed(wire);
  const auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(got->begin(), got->end()), payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, ReassemblesTornFrames) {
  // Three frames, delivered one byte at a time: the worst tearing TCP can
  // legally produce.
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload_of(1, 10));
  append_frame(wire, payload_of(300, 20));
  append_frame(wire, payload_of(7, 30));

  FrameDecoder dec;
  std::vector<std::size_t> sizes;
  for (const std::uint8_t b : wire) {
    dec.feed(std::span<const std::uint8_t>(&b, 1));
    while (const auto p = dec.next()) sizes.push_back(p->size());
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 300, 7}));
}

TEST(Frame, ManyFramesInOneRead) {
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 50; ++i) append_frame(wire, payload_of(i));
  FrameDecoder dec;
  dec.feed(wire);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto p = dec.next();
    ASSERT_TRUE(p.has_value()) << i;
    EXPECT_EQ(p->size(), i);
  }
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Frame, ZeroLengthFrameIsLegal) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, {});
  append_frame(wire, payload_of(5));
  FrameDecoder dec;
  dec.feed(wire);
  const auto empty = dec.next();
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);  // engaged but empty
  const auto five = dec.next();
  ASSERT_TRUE(five.has_value());
  EXPECT_EQ(five->size(), 5u);
}

TEST(Frame, MaxLengthFrameRoundTrips) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload_of(kMaxFramePayload));
  FrameDecoder dec;
  dec.feed(wire);
  const auto p = dec.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), kMaxFramePayload);
  EXPECT_FALSE(dec.corrupt());
}

TEST(Frame, OverMaxLengthMarksStreamCorrupt) {
  // Header announcing max+1: framing is gone; no resync on garbage.
  std::vector<std::uint8_t> wire;
  const std::uint32_t bad = kMaxFramePayload + 1;
  wire.push_back(static_cast<std::uint8_t>(bad >> 24));
  wire.push_back(static_cast<std::uint8_t>(bad >> 16));
  wire.push_back(static_cast<std::uint8_t>(bad >> 8));
  wire.push_back(static_cast<std::uint8_t>(bad));
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
  // Further feeds are no-ops until reset.
  std::vector<std::uint8_t> more;
  append_frame(more, payload_of(4));
  dec.feed(more);
  EXPECT_FALSE(dec.next().has_value());
  dec.reset();
  EXPECT_FALSE(dec.corrupt());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, ResetDropsPartialTail) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload_of(64));
  FrameDecoder dec;
  // Feed the complete frame plus half of a second one.
  dec.feed(wire);
  dec.feed(std::span<const std::uint8_t>(wire.data(), wire.size() / 2));
  ASSERT_TRUE(dec.next().has_value());
  EXPECT_GT(dec.buffered(), 0u);
  const std::size_t dropped = dec.reset();
  EXPECT_EQ(dropped, wire.size() / 2);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, LspPayloadRoundTrips) {
  isis::LspRecord record;
  record.received_at = TimePoint::from_unix_millis(1286546400123);
  record.bytes = ByteSlice::copy_of(payload_of(27, 3));

  std::vector<std::uint8_t> wire;
  append_lsp_frame(wire, record);
  FrameDecoder dec;
  dec.feed(wire);
  const auto p = dec.next();
  ASSERT_TRUE(p.has_value());
  const auto got = decode_lsp_payload(*p);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->received_at, record.received_at);
  EXPECT_EQ(got->bytes, record.bytes);
}

TEST(Frame, LspArrivalOutsideAcceptedRangeIsError) {
  // A hostile arrival time must be a decode error (the gateway counts it
  // in lsp_decode_errors), not reach the trackers' arrival arithmetic.
  for (const std::int64_t ms :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(),
        kInputTimeRange.end.unix_millis(),
        kInputTimeRange.begin.unix_millis() - 1}) {
    isis::LspRecord record;
    record.received_at = TimePoint::from_unix_millis(ms);
    record.bytes = ByteSlice::copy_of(payload_of(27, 3));
    std::vector<std::uint8_t> wire;
    append_lsp_frame(wire, record);
    FrameDecoder dec;
    dec.feed(wire);
    const auto p = dec.next();
    ASSERT_TRUE(p.has_value());
    const auto got = decode_lsp_payload(*p);
    ASSERT_FALSE(got.ok()) << ms;
    EXPECT_EQ(got.error().code, ErrorCode::kOutOfRange);
  }
}

TEST(Frame, LspPayloadTooShortIsError) {
  // A payload shorter than the 8-byte arrival prefix cannot be a record.
  const auto junk = payload_of(7);
  EXPECT_FALSE(decode_lsp_payload(junk).ok());
}

}  // namespace
}  // namespace netfail::net
