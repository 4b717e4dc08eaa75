#include "src/isis/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"

namespace netfail {
namespace {

std::vector<std::uint8_t> with_checksum(std::vector<std::uint8_t> data,
                                        std::size_t offset) {
  const std::uint16_t ck = fletcher_checksum(data, offset);
  data[offset] = static_cast<std::uint8_t>(ck >> 8);
  data[offset + 1] = static_cast<std::uint8_t>(ck);
  return data;
}

TEST(Fletcher, ComputedChecksumVerifies) {
  std::vector<std::uint8_t> data(40);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 7);
  }
  const auto sealed = with_checksum(data, 12);
  EXPECT_TRUE(fletcher_verify(sealed, 12));
}

TEST(Fletcher, CorruptionDetected) {
  std::vector<std::uint8_t> data(64, 0x5a);
  auto sealed = with_checksum(data, 10);
  for (std::size_t i : {0u, 5u, 20u, 63u}) {
    auto corrupt = sealed;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(fletcher_verify(corrupt, 10)) << "flip at " << i;
  }
}

TEST(Fletcher, ZeroChecksumRejected) {
  std::vector<std::uint8_t> data(32, 0);
  // All zeros: stored checksum 0x0000 means "not computed".
  EXPECT_FALSE(fletcher_verify(data, 8));
}

TEST(Fletcher, ChecksumNeverZeroOctets) {
  // The generator substitutes 255 for 0 octets; verify on tricky inputs.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(rng.uniform_int(16, 200)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::size_t offset =
        static_cast<std::size_t>(rng.uniform_int(0, 8)) * 2;
    const std::uint16_t ck = fletcher_checksum(data, offset);
    EXPECT_NE(ck >> 8, 0);
    EXPECT_NE(ck & 0xff, 0);
  }
}

// Property: random payloads round-trip; single-bit flips are detected.
class FletcherProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FletcherProperty, RoundTripAndDetect) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> data(
      static_cast<std::size_t>(rng.uniform_int(20, 500)));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::size_t offset = 12;
  const auto sealed = with_checksum(data, offset);
  ASSERT_TRUE(fletcher_verify(sealed, offset));

  auto corrupt = sealed;
  const std::size_t pos =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
  const std::uint8_t flip =
      static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
  corrupt[pos] ^= flip;
  EXPECT_FALSE(fletcher_verify(corrupt, offset));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FletcherProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- the word-wise sum against a byte-at-a-time reference -------------------

/// The textbook ISO 8473 loop: both accumulators reduced mod 255 after every
/// byte, the checksum field read as zero when `zero_field` and it fits.
void reference_sums(std::span<const std::uint8_t> data, std::size_t offset,
                    bool zero_field, std::uint32_t& c0, std::uint32_t& c1) {
  c0 = 0;
  c1 = 0;
  const bool skip = zero_field && offset + 2 <= data.size();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool in_field = skip && (i == offset || i == offset + 1);
    const std::uint32_t b = in_field ? 0 : data[i];
    c0 = (c0 + b) % 255;
    c1 = (c1 + c0) % 255;
  }
}

std::uint16_t reference_checksum(std::span<const std::uint8_t> data,
                                 std::size_t offset) {
  std::uint32_t c0 = 0, c1 = 0;
  reference_sums(data, offset, true, c0, c1);
  const auto mod = [](std::int64_t v) {
    const std::int64_t m = v % 255;
    return static_cast<std::uint32_t>(m < 0 ? m + 255 : m);
  };
  const std::int64_t len = static_cast<std::int64_t>(data.size());
  const std::int64_t p = static_cast<std::int64_t>(offset) + 1;
  std::uint32_t x = mod((len - p) * c0 - c1);
  std::uint32_t y = mod(c1 - (len - p + 1) * std::int64_t{c0});
  if (x == 0) x = 255;
  if (y == 0) y = 255;
  return static_cast<std::uint16_t>((x << 8) | y);
}

bool reference_verify(std::span<const std::uint8_t> data, std::size_t offset) {
  if (offset + 2 > data.size()) return false;
  if (data[offset] == 0 && data[offset + 1] == 0) return false;
  std::uint32_t c0 = 0, c1 = 0;
  reference_sums(data, offset, false, c0, c1);
  return c0 == 0 && c1 == 0;
}

TEST(FletcherReference, EveryLengthUpToAnEthernetFrameAgrees) {
  Rng rng(0xF1E7);
  for (std::size_t n = 0; n <= 1500; ++n) {
    SCOPED_TRACE(testing::Message() << n << " bytes");
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // An offset inside the buffer, and one whose field does not fit.
    const std::size_t inside =
        n < 2 ? 0
              : static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    for (const std::size_t offset : {inside, n}) {
      ASSERT_EQ(fletcher_checksum(data, offset),
                reference_checksum(data, offset));
      ASSERT_EQ(fletcher_verify(data, offset), reference_verify(data, offset));
    }
    if (n < 2) continue;
    // Sealed, the buffer verifies both ways; one changed byte fails both.
    std::vector<std::uint8_t> sealed = with_checksum(data, inside);
    ASSERT_TRUE(fletcher_verify(sealed, inside));
    ASSERT_TRUE(reference_verify(sealed, inside));
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    sealed[at] =
        static_cast<std::uint8_t>(sealed[at] + 1 + rng.uniform_int(0, 253));
    ASSERT_EQ(fletcher_verify(sealed, inside),
              reference_verify(sealed, inside));
  }
}

TEST(FletcherReference, AllOnesNearTheReductionBlockAgree) {
  // 0xFF bytes give every word's lanes and both running sums their largest
  // values. The sums are reduced mod 255 once per 4 MiB block, so cover
  // lengths either side of one and two blocks.
  constexpr std::size_t kBlock = std::size_t{1} << 22;
  for (const std::size_t n :
       {std::size_t{8}, std::size_t{1500}, kBlock - 9, kBlock - 1, kBlock,
        kBlock + 1, kBlock + 8, 2 * kBlock + 3}) {
    SCOPED_TRACE(testing::Message() << n << " bytes");
    const std::vector<std::uint8_t> data(n, 0xFF);
    for (const std::size_t offset : {std::size_t{0}, n / 2, n - 2}) {
      EXPECT_EQ(fletcher_checksum(data, offset),
                reference_checksum(data, offset));
      EXPECT_EQ(fletcher_verify(data, offset), reference_verify(data, offset));
      const std::vector<std::uint8_t> sealed = with_checksum(data, offset);
      EXPECT_TRUE(fletcher_verify(sealed, offset));
      EXPECT_TRUE(reference_verify(sealed, offset));
    }
  }
}

}  // namespace
}  // namespace netfail
