// Deterministic fuzz suite for the TCP LSP boundary: the bytes a peer
// writes to the gateway's LSP port pass through net::FrameDecoder, then
// decode_lsp_payload, then the IS-IS extractor inside a StreamEngine. The
// corpus is a real simulated LSP stream, re-split at seeded random read
// boundaries, byte-mutated, truncated, spliced with garbage, and — at the
// payload level — re-checksummed so mutated PDUs reach the TLV parser
// instead of stopping at the Fletcher check. No libFuzzer: every case is
// a fixed seed, so a failure reproduces exactly. Runs in tier-1 and under
// ASan/UBSan with the rest of test_net.
//
// Properties:
//   - splits: any read split yields the frames a one-shot feed yields;
//   - mutations: a mutated stream yields frames, an incomplete tail or a
//     corrupt() flag, every byte is accounted for, and buffered() never
//     exceeds one read plus kMaxFramePayload + kFrameHeaderBytes;
//   - decode: every payload that decodes can be fed to the extractor, and
//     each one is processed or counted as a parse or checksum failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/rng.hpp"
#include "src/isis/checksum.hpp"
#include "src/isis/extract.hpp"
#include "src/net/frame.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"

namespace netfail::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::shared_ptr<const analysis::PipelineCapture> capture() {
  return analysis::ScenarioCache::global().capture(sim::test_scenario(1));
}

/// The first `count` LSP records of the scenario as one TCP byte stream.
Bytes lsp_wire(const std::vector<isis::LspRecord>& records,
               std::size_t count) {
  Bytes wire;
  for (std::size_t i = 0; i < std::min(count, records.size()); ++i) {
    append_lsp_frame(wire, records[i]);
  }
  return wire;
}

struct DecodeRun {
  std::vector<Bytes> frames;
  bool corrupt = false;
  std::size_t tail = 0;  // buffered() at end of stream
};

/// Feed `wire` to a FrameDecoder in reads of 1..max_read bytes (one read
/// when max_read is 0), draining complete frames after every read the way
/// the gateway does, and check the buffering bound after each read.
DecodeRun decode_in_reads(std::span<const std::uint8_t> wire, Rng& rng,
                          std::size_t max_read) {
  DecodeRun run;
  FrameDecoder dec;
  std::size_t off = 0;
  while (off < wire.size()) {
    std::size_t n = wire.size() - off;
    if (max_read > 0) {
      n = std::min<std::size_t>(
          n, static_cast<std::size_t>(rng.uniform_int(
                 1, static_cast<std::int64_t>(max_read))));
    }
    dec.feed(wire.subspan(off, n));
    off += n;
    EXPECT_LE(dec.buffered(), n + kMaxFramePayload + kFrameHeaderBytes);
    while (const auto p = dec.next()) {
      run.frames.emplace_back(p->begin(), p->end());
    }
  }
  run.corrupt = dec.corrupt();
  run.tail = dec.buffered();
  return run;
}

std::size_t framed_bytes(const DecodeRun& run) {
  std::size_t total = 0;
  for (const Bytes& f : run.frames) total += kFrameHeaderBytes + f.size();
  return total;
}

constexpr std::size_t kReadSizes[] = {1, 3, 7, 64, 1500, 65536};

TEST(FrameFuzz, RandomSplitsYieldTheOneShotFrames) {
  const auto cap = capture();
  Bytes wire = lsp_wire(cap->sim.listener.records(), 300);
  // Boundary frames ride along: empty and maximum-length payloads.
  append_frame(wire, Bytes{});
  append_frame(wire, Bytes(kMaxFramePayload, 0xA5));
  append_frame(wire, Bytes(1, 0x01));

  Rng rng(0x5EED);
  const DecodeRun whole = decode_in_reads(wire, rng, 0);
  ASSERT_FALSE(whole.corrupt);
  ASSERT_EQ(whole.tail, 0u);
  ASSERT_EQ(framed_bytes(whole), wire.size());

  for (int round = 0; round < 60; ++round) {
    const std::size_t max_read = kReadSizes[round % std::size(kReadSizes)];
    SCOPED_TRACE("round " + std::to_string(round));
    const DecodeRun split = decode_in_reads(wire, rng, max_read);
    EXPECT_FALSE(split.corrupt);
    EXPECT_EQ(split.tail, 0u);
    ASSERT_EQ(split.frames, whole.frames);
  }
}

/// One seeded mutation of a byte stream: flips, a truncation, a garbage
/// splice, a deleted range, or an absurd length header.
Bytes mutate(Bytes wire, Rng& rng) {
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {
      const int flips = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < flips && !wire.empty(); ++i) {
        wire[pos(wire.size() - 1)] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      break;
    }
    case 1:
      wire.resize(pos(wire.size()));
      break;
    case 2: {
      Bytes garbage(static_cast<std::size_t>(rng.uniform_int(1, 64)));
      for (std::uint8_t& b : garbage) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      const std::size_t at = pos(wire.size());
      wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at),
                  garbage.begin(), garbage.end());
      break;
    }
    case 3: {
      const std::size_t a = pos(wire.size());
      const std::size_t b = std::min(wire.size(), a + pos(256));
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(a),
                 wire.begin() + static_cast<std::ptrdiff_t>(b));
      break;
    }
    default: {
      // A length header just past the cap, or anywhere up to 2^32 - 1.
      Bytes head(kFrameHeaderBytes);
      const std::uint32_t len =
          rng.bernoulli(0.5)
              ? kMaxFramePayload + 1
              : static_cast<std::uint32_t>(rng.uniform_int(
                    0, std::numeric_limits<std::uint32_t>::max()));
      head[0] = static_cast<std::uint8_t>(len >> 24);
      head[1] = static_cast<std::uint8_t>(len >> 16);
      head[2] = static_cast<std::uint8_t>(len >> 8);
      head[3] = static_cast<std::uint8_t>(len);
      const std::size_t at = pos(wire.size());
      wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at), head.begin(),
                  head.end());
      break;
    }
  }
  return wire;
}

TEST(FrameFuzz, MutatedStreamsFrameOrFlagCorruptWithinTheBufferBound) {
  const auto cap = capture();
  const Bytes clean = lsp_wire(cap->sim.listener.records(), 40);
  Rng rng(0xF4A3);
  std::size_t corrupt_runs = 0;
  std::size_t framed_runs = 0;
  for (int i = 0; i < 1500; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    Bytes wire = mutate(clean, rng);
    if (rng.bernoulli(0.3)) wire = mutate(std::move(wire), rng);
    const DecodeRun whole = decode_in_reads(wire, rng, 0);
    const DecodeRun split =
        decode_in_reads(wire, rng, kReadSizes[i % std::size(kReadSizes)]);
    // Framing is a pure function of the byte sequence, not of the reads.
    ASSERT_EQ(split.frames, whole.frames);
    ASSERT_EQ(split.corrupt, whole.corrupt);
    // Every byte is in a frame or in the pending tail; a corrupt stream
    // stops framing at the bad header.
    if (whole.corrupt) {
      EXPECT_LE(framed_bytes(whole) + whole.tail, wire.size());
      ++corrupt_runs;
    } else {
      EXPECT_EQ(framed_bytes(whole) + whole.tail, wire.size());
      EXPECT_LT(whole.tail, kFrameHeaderBytes + kMaxFramePayload);
    }
    if (!whole.frames.empty()) ++framed_runs;
  }
  // The mutation mix reaches both outcomes.
  EXPECT_GT(corrupt_runs, 0u);
  EXPECT_GT(framed_runs, 0u);
}

// IS-IS LSP checksum geometry (ISO 10589): the Fletcher sum covers the PDU
// from the LSP ID at offset 12, and the checksum field sits at offset 24.
constexpr std::size_t kCoverStart = 12;
constexpr std::size_t kChecksumAt = 24;

void refresh_checksum(Bytes& pdu) {
  if (pdu.size() < kChecksumAt + 2) return;
  const std::span<const std::uint8_t> covered(pdu.data() + kCoverStart,
                                              pdu.size() - kCoverStart);
  const std::uint16_t ck =
      fletcher_checksum(covered, kChecksumAt - kCoverStart);
  pdu[kChecksumAt] = static_cast<std::uint8_t>(ck >> 8);
  pdu[kChecksumAt + 1] = static_cast<std::uint8_t>(ck);
}

TEST(FrameFuzz, EveryDecodedPayloadFeedsTheExtractor) {
  const auto cap = capture();
  const std::vector<isis::LspRecord>& records = cap->sim.listener.records();
  ASSERT_GT(records.size(), 200u);
  Rng rng(0xDEC0);

  // Mutated records framed into one stream: PDU bytes flipped, cut or
  // extended (half of them re-checksummed so the TLV parser sees them),
  // and arrival times drawn from in-range, boundary and hostile values.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Bytes wire;
  for (std::size_t i = 0; i < 2000; ++i) {
    // Records are immutable: mutate a copy of the PDU's bytes.
    isis::LspRecord rec = records[i % records.size()];
    Bytes pdu(rec.bytes.span().begin(), rec.bytes.span().end());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        break;  // intact
      case 1: {
        const int flips = static_cast<int>(rng.uniform_int(1, 6));
        for (int f = 0; f < flips && !pdu.empty(); ++f) {
          pdu[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pdu.size()) - 1))] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
      }
      case 2:
        pdu.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pdu.size()))));
        break;
      default:
        for (int extra = static_cast<int>(rng.uniform_int(1, 40)); extra > 0;
             --extra) {
          pdu.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
        break;
    }
    if (rng.bernoulli(0.5)) refresh_checksum(pdu);
    rec.bytes = ByteSlice::copy_of(pdu);
    switch (rng.uniform_int(0, 5)) {
      case 0:
        rec.received_at = TimePoint::from_unix_millis(kMin);
        break;
      case 1:
        rec.received_at = TimePoint::from_unix_millis(kMax);
        break;
      case 2:
        rec.received_at = kInputTimeRange.end;
        break;
      case 3:
        rec.received_at = kInputTimeRange.begin;
        break;
      default:
        break;  // the scenario's own arrival time
    }
    append_lsp_frame(wire, rec);
  }

  stream::EngineOptions options;
  options.tracker.reconstruct.period = cap->period;
  stream::StreamEngine engine(cap->census, options);
  isis::StreamingExtractor extractor(&cap->census);
  std::vector<isis::IsisTransition> transitions;

  FrameDecoder dec;
  std::size_t off = 0;
  std::size_t frames = 0;
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(
        wire.size() - off,
        static_cast<std::size_t>(rng.uniform_int(1, 4096)));
    dec.feed(std::span<const std::uint8_t>(wire).subspan(off, n));
    off += n;
    while (const auto p = dec.next()) {
      ++frames;
      const auto rec = decode_lsp_payload(*p);
      if (!rec) {
        ++rejected;
        continue;
      }
      ASSERT_TRUE(kInputTimeRange.contains(rec->received_at));
      ++decoded;
      extractor.feed(*rec, transitions);
      engine.feed_lsp(*rec);
    }
  }
  engine.finish();
  ASSERT_FALSE(dec.corrupt());
  EXPECT_EQ(frames, 2000u);
  EXPECT_EQ(decoded + rejected, frames);
  EXPECT_GT(rejected, 0u);  // the hostile arrival times
  const isis::ExtractionStats& st = extractor.stats();
  EXPECT_EQ(st.lsps_processed + st.parse_failures + st.checksum_failures,
            decoded);
  EXPECT_GT(st.lsps_processed, 0u);
  EXPECT_GT(st.parse_failures + st.checksum_failures, 0u);
  EXPECT_EQ(engine.lsp_events(), decoded);
}

}  // namespace
}  // namespace netfail::net
