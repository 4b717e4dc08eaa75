#include "src/isis/checksum.hpp"

#include <bit>
#include <cstring>

namespace netfail {
namespace {

// Fletcher accumulation with deferred modulo. The textbook loop reduces both
// accumulators mod 255 after every byte — two integer divisions per input
// byte, which dominated LSP decode. Instead the accumulators run in 64 bits
// and are reduced once per block: after n bytes starting from c0 < 255,
// c1 < 255, the worst case is c0 <= 254 + 255n and
// c1 <= 254 + n*254 + 255*n(n+1)/2, so any block well under 2^27 bytes is
// overflow-safe. LSPs are a few hundred bytes; a whole PDU is one block.
constexpr std::size_t kBlock = std::size_t{1} << 22;

// Eight bytes at a time, SWAR: one 64-bit load is split into its even and
// odd bytes, each in a 16-bit lane, and one multiply per half sums its lanes
// with per-byte weights into the top lane. Appending bytes b0..b7 (in
// memory order) to (c0, c1) gives
//   c1' = c1 + 8*c0 + (8*b0 + 7*b1 + ... + 1*b7),   c0' = c0 + b0 + ... + b7.
// A lane never exceeds 255 * (8 + 6 + 4 + 2) + 255 * (7 + 5 + 3 + 1) = 9180,
// so no product carries between lanes. Which byte lands in which lane
// depends on the load's byte order, so the weights do too.
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian targets are not supported");
constexpr bool kLittleEndian = std::endian::native == std::endian::little;
constexpr std::uint64_t kLowBytes = 0x00ff00ff00ff00ffull;
constexpr std::uint64_t kLaneSum = 0x0001000100010001ull;
// Lane 3 of (x * w) is the sum over i of x's lane i times w's lane 3 - i.
// Little endian: x & kLowBytes holds b0, b2, b4, b6 in lanes 0..3, and the
// odd half b1, b3, b5, b7; big endian the reverse, b7, b5, b3, b1 and
// b6, b4, b2, b0.
constexpr std::uint64_t kLowWeights =
    kLittleEndian ? 0x0008000600040002ull : 0x0001000300050007ull;
constexpr std::uint64_t kHighWeights =
    kLittleEndian ? 0x0007000500030001ull : 0x0002000400060008ull;

/// Add `data` into the running accumulators.
void accumulate_span(const std::uint8_t* p, std::size_t n, std::uint64_t& c0,
                     std::uint64_t& c1) {
  while (n > 0) {
    const std::size_t block = n < kBlock ? n : kBlock;
    std::size_t i = 0;
    for (; i + 8 <= block; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, p + i, sizeof word);
      const std::uint64_t low = word & kLowBytes;
      const std::uint64_t high = (word >> 8) & kLowBytes;
      const std::uint64_t s = ((low + high) * kLaneSum) >> 48;
      const std::uint64_t w = (low * kLowWeights + high * kHighWeights) >> 48;
      c1 += 8 * c0 + w;
      c0 += s;
    }
    for (; i < block; ++i) {
      c0 += p[i];
      c1 += c0;
    }
    c0 %= 255;
    c1 %= 255;
    p += block;
    n -= block;
  }
}

/// Fletcher accumulators over `data`, treating the two checksum bytes at
/// `checksum_offset` as zero when requested. Returns (c0, c1) in [0, 254].
void accumulate(std::span<const std::uint8_t> data, std::size_t checksum_offset,
                bool zero_checksum_field, std::uint32_t& c0_out,
                std::uint32_t& c1_out) {
  std::uint64_t c0 = 0, c1 = 0;
  if (!zero_checksum_field || checksum_offset + 2 > data.size()) {
    accumulate_span(data.data(), data.size(), c0, c1);
  } else {
    // Split around the zeroed checksum field: a zero byte leaves c0 alone
    // and adds c0 into c1, so the two skipped bytes contribute 2*c0.
    accumulate_span(data.data(), checksum_offset, c0, c1);
    c1 += 2 * c0;
    accumulate_span(data.data() + checksum_offset + 2,
                    data.size() - checksum_offset - 2, c0, c1);
  }
  c0_out = static_cast<std::uint32_t>(c0 % 255);
  c1_out = static_cast<std::uint32_t>(c1 % 255);
}

std::uint32_t pos_mod_255(std::int64_t v) {
  std::int64_t m = v % 255;
  if (m < 0) m += 255;
  return static_cast<std::uint32_t>(m);
}

}  // namespace

std::uint16_t fletcher_checksum(std::span<const std::uint8_t> data,
                                std::size_t checksum_offset) {
  std::uint32_t c0 = 0, c1 = 0;
  accumulate(data, checksum_offset, /*zero_checksum_field=*/true, c0, c1);

  const std::int64_t len = static_cast<std::int64_t>(data.size());
  const std::int64_t p = static_cast<std::int64_t>(checksum_offset) + 1;  // 1-based
  // Solve for the two checksum octets x, y such that both accumulators are
  // zero mod 255 after insertion (derivation in ISO 8473 / RFC 1008).
  std::uint32_t x = pos_mod_255((len - p) * c0 - c1);
  std::uint32_t y = pos_mod_255(c1 - (len - p + 1) * c0);
  // 0x0000 is reserved for "checksum not computed"; 0 and 255 are congruent
  // mod 255, so substituting 255 preserves validity.
  if (x == 0) x = 255;
  if (y == 0) y = 255;
  return static_cast<std::uint16_t>((x << 8) | y);
}

bool fletcher_verify(std::span<const std::uint8_t> data,
                     std::size_t checksum_offset) {
  if (checksum_offset + 2 > data.size()) return false;
  const std::uint16_t stored = static_cast<std::uint16_t>(
      (std::uint16_t{data[checksum_offset]} << 8) | data[checksum_offset + 1]);
  if (stored == 0) return false;  // "not computed" is a failure for LSPs we emit
  std::uint32_t c0 = 0, c1 = 0;
  accumulate(data, checksum_offset, /*zero_checksum_field=*/false, c0, c1);
  return c0 == 0 && c1 == 0;
}

}  // namespace netfail
