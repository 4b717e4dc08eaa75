// Deterministic fuzz suite for the one LSP walk. Lsp::decode_into and
// LspReach::read (what the extraction's differ reads every record through)
// are two sinks on one validating walk; this suite holds them to the same
// verdict on simulator PDUs that are byte-mutated, cut, extended and
// TLV-mangled, most of them re-checksummed (and their length field
// patched) so they reach the TLV parser instead of stopping at the
// Fletcher check or the length check. Both read through one reused scratch
// each, as the differ does. No libFuzzer: every case is a fixed seed, so a
// failure reproduces exactly. Runs in tier-1 and under ASan/UBSan with the
// rest of test_isis.
//
// Properties, per PDU:
//   - both accept it, or both reject it with the same error code (so the
//     same class, checksum or parse) and message;
//   - when accepted: the same source, sequence, lifetime and hostname, the
//     same neighbor multiset (decode_into's TLV 22 entries counted per
//     neighbor) and the same /31s (decode_into's TLV 135 /31 prefixes,
//     sorted).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/rng.hpp"
#include "src/isis/checksum.hpp"
#include "src/isis/pdu.hpp"

namespace netfail::isis {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ISO 10589 LSP geometry: the PDU length at offset 8, the Fletcher sum over
// the LSP ID onward (offset 12) with its field at offset 24, TLVs from 27.
constexpr std::size_t kLengthAt = 8;
constexpr std::size_t kCoverStart = 12;
constexpr std::size_t kChecksumAt = 24;
constexpr std::size_t kTlvStart = 27;

void patch_length(Bytes& pdu) {
  if (pdu.size() < kLengthAt + 2) return;
  pdu[kLengthAt] = static_cast<std::uint8_t>(pdu.size() >> 8);
  pdu[kLengthAt + 1] = static_cast<std::uint8_t>(pdu.size());
}

void refresh_checksum(Bytes& pdu) {
  if (pdu.size() < kChecksumAt + 2) return;
  const std::span<const std::uint8_t> covered(pdu.data() + kCoverStart,
                                              pdu.size() - kCoverStart);
  const std::uint16_t ck =
      fletcher_checksum(covered, kChecksumAt - kCoverStart);
  pdu[kChecksumAt] = static_cast<std::uint8_t>(ck >> 8);
  pdu[kChecksumAt + 1] = static_cast<std::uint8_t>(ck);
}

/// Offsets of the TLVs of `pdu` that lie whole inside it, as far as they
/// chain.
std::vector<std::size_t> tlv_offsets(const Bytes& pdu) {
  std::vector<std::size_t> out;
  for (std::size_t at = kTlvStart;
       at + 2 <= pdu.size() && at + 2 + pdu[at + 1] <= pdu.size();
       at += 2 + pdu[at + 1]) {
    out.push_back(at);
  }
  return out;
}

std::uint8_t random_byte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

std::size_t random_index(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// One seeded mutation of an LSP.
Bytes mutate(Bytes pdu, Rng& rng) {
  const std::vector<std::size_t> tlvs = tlv_offsets(pdu);
  switch (rng.uniform_int(0, 6)) {
    case 0: {  // flipped bytes anywhere
      const int flips = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < flips && !pdu.empty(); ++i) {
        pdu[random_index(rng, pdu.size())] = random_byte(rng);
      }
      break;
    }
    case 1:  // cut short
      pdu.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pdu.size()))));
      break;
    case 2:  // random bytes appended
      for (int n = static_cast<int>(rng.uniform_int(1, 40)); n > 0; --n) {
        pdu.push_back(random_byte(rng));
      }
      break;
    case 3:  // a TLV's length changed
      if (!tlvs.empty()) {
        pdu[tlvs[random_index(rng, tlvs.size())] + 1] = random_byte(rng);
      }
      break;
    case 4: {  // a byte inside a TLV changed: a control or sub-TLV length
      if (tlvs.empty()) break;
      const std::size_t at = tlvs[random_index(rng, tlvs.size())];
      const std::size_t len = pdu[at + 1];
      if (len > 0) pdu[at + 2 + random_index(rng, len)] = random_byte(rng);
      break;
    }
    case 5: {  // a random TLV of a tracked type inserted between two
      static constexpr std::uint8_t kTypes[] = {
          kTlvDynamicHostname, kTlvExtendedIsReach, kTlvExtendedIpReach, 1};
      Bytes tlv{kTypes[random_index(rng, std::size(kTypes))]};
      const auto len = static_cast<std::uint8_t>(rng.uniform_int(0, 48));
      tlv.push_back(len);
      for (std::uint8_t i = 0; i < len; ++i) tlv.push_back(random_byte(rng));
      const std::size_t at =
          tlvs.empty() ? std::min(pdu.size(), kTlvStart)
                       : tlvs[random_index(rng, tlvs.size())];
      pdu.insert(pdu.begin() + static_cast<std::ptrdiff_t>(at), tlv.begin(),
                 tlv.end());
      break;
    }
    default:  // a TLV repeated (a second hostname, more neighbors)
      if (!tlvs.empty()) {
        const std::size_t at = tlvs[random_index(rng, tlvs.size())];
        const Bytes copy(pdu.begin() + static_cast<std::ptrdiff_t>(at),
                         pdu.begin() + static_cast<std::ptrdiff_t>(
                                           at + 2 + pdu[at + 1]));
        pdu.insert(pdu.end(), copy.begin(), copy.end());
      }
      break;
  }
  return pdu;
}

/// decode_into's neighbors as LspReach keeps them: counted, by neighbor.
std::vector<std::pair<OsiSystemId, int>> counted_neighbors(const Lsp& lsp) {
  std::map<OsiSystemId, int> counts;
  for (const IsReachEntry& e : lsp.is_reach) ++counts[e.neighbor];
  return {counts.begin(), counts.end()};
}

std::vector<Ipv4Prefix> sorted_p2p(const Lsp& lsp) {
  std::vector<Ipv4Prefix> out;
  for (const IpReachEntry& e : lsp.ip_reach) {
    if (e.prefix.length() == 31) out.push_back(e.prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LspWalkFuzz, DecodeAndTheDiffersReadAgreeOnMutatedPdus) {
  const auto cap =
      analysis::ScenarioCache::global().capture(sim::test_scenario(1));
  const std::vector<LspRecord>& records = cap->sim.listener.records();
  ASSERT_GT(records.size(), 200u);
  Rng rng(0x5A1C);
  Lsp lsp;
  LspReach reach;
  std::map<ErrorCode, std::size_t> rejected;
  std::size_t accepted = 0;
  std::size_t with_hostname = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const std::span<const std::uint8_t> original =
        records[(i * 7919) % records.size()].bytes.span();
    Bytes pdu(original.begin(), original.end());
    if (i % 10 != 0) {  // one in ten stays intact
      pdu = mutate(std::move(pdu), rng);
      if (rng.bernoulli(0.3)) pdu = mutate(std::move(pdu), rng);
      if (rng.bernoulli(0.8)) patch_length(pdu);
      if (rng.bernoulli(0.8)) refresh_checksum(pdu);
    }

    const Status decoded = Lsp::decode_into(pdu, lsp);
    const Status read = LspReach::read(pdu, reach);
    ASSERT_EQ(read.ok(), decoded.ok());
    if (!decoded.ok()) {
      ASSERT_EQ(read.error().code, decoded.error().code);
      ASSERT_EQ(read.error().message, decoded.error().message);
      ++rejected[decoded.error().code];
      continue;
    }
    ++accepted;
    with_hostname += !lsp.hostname.empty();
    ASSERT_EQ(reach.source, lsp.source);
    ASSERT_EQ(reach.sequence, lsp.sequence);
    ASSERT_EQ(reach.remaining_lifetime, lsp.remaining_lifetime);
    ASSERT_EQ(reach.hostname, lsp.hostname);
    ASSERT_EQ(reach.neighbors, counted_neighbors(lsp));
    ASSERT_EQ(reach.p2p_prefixes, sorted_p2p(lsp));
  }
  // The mix reaches acceptance, the checksum check and the TLV parser's
  // truncation and field checks.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(with_hostname, 0u);
  EXPECT_GT(rejected[ErrorCode::kChecksumMismatch], 0u);
  EXPECT_GT(rejected[ErrorCode::kTruncated], 0u);
  EXPECT_GT(rejected[ErrorCode::kParseError], 0u);
}

}  // namespace
}  // namespace netfail::isis
