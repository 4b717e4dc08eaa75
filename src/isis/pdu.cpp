#include "src/isis/pdu.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "src/common/strfmt.hpp"
#include "src/isis/bytes.hpp"
#include "src/isis/checksum.hpp"

namespace netfail::isis {
namespace {

constexpr std::uint8_t kProtocolDiscriminator = 0x83;
constexpr std::uint8_t kVersionProtocolIdExt = 1;
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kLspHeaderLength = 27;
constexpr std::uint8_t kP2PHelloHeaderLength = 20;
// Offsets within the full LSP PDU.
constexpr std::size_t kLspPduLengthOffset = 8;
constexpr std::size_t kLspChecksumCoverStart = 12;  // from LSP ID onward
constexpr std::size_t kLspChecksumOffset = 24;

void write_common_header(ByteWriter& w, std::uint8_t pdu_type,
                         std::uint8_t header_length) {
  w.u8(kProtocolDiscriminator);
  w.u8(header_length);
  w.u8(kVersionProtocolIdExt);
  w.u8(0);  // ID length: 0 means the standard 6 bytes
  w.u8(pdu_type);
  w.u8(kVersion);
  w.u8(0);  // reserved
  w.u8(0);  // maximum area addresses: 0 means 3
};

/// Parse + validate the 8-byte common header; returns the PDU type.
Result<std::uint8_t> read_common_header(ByteReader& r) {
  Result<std::uint8_t> disc = r.u8();
  if (!disc) return disc.error();
  if (*disc != kProtocolDiscriminator) {
    return make_error(ErrorCode::kParseError,
                      strformat("bad protocol discriminator 0x%02x", *disc));
  }
  Result<std::uint8_t> header_len = r.u8();
  if (!header_len) return header_len.error();
  Result<std::uint8_t> version_ext = r.u8();
  if (!version_ext) return version_ext.error();
  Result<std::uint8_t> id_len = r.u8();
  if (!id_len) return id_len.error();
  if (*id_len != 0 && *id_len != 6) {
    return make_error(ErrorCode::kParseError, "unsupported ID length");
  }
  Result<std::uint8_t> type = r.u8();
  if (!type) return type.error();
  for (int i = 0; i < 3; ++i) {
    if (Result<std::uint8_t> b = r.u8(); !b) return b.error();
  }
  return static_cast<std::uint8_t>(*type & 0x1f);
}

Result<OsiSystemId> read_system_id(ByteReader& r) {
  // view(), not bytes(): this runs once per IS-reach entry, and a
  // heap-backed vector here dominated the whole decode cost.
  Result<std::span<const std::uint8_t>> raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> arr{};
  std::copy(raw->begin(), raw->end(), arr.begin());
  return OsiSystemId{arr};
}

}  // namespace

std::string Lsp::lsp_id_string() const {
  return source.to_string() + strformat(".%02x-%02x", pseudonode, fragment);
}

std::vector<std::uint8_t> Lsp::encode() const {
  ByteWriter w;
  write_common_header(w, kPduTypeLspL2, kLspHeaderLength);
  w.u16(0);  // PDU length, patched below
  w.u16(remaining_lifetime);
  w.bytes(source.bytes());
  w.u8(pseudonode);
  w.u8(fragment);
  w.u32(sequence);
  w.u16(0);  // checksum, patched below
  w.u8(0x03);  // IS type: level-2

  // TLV 137: dynamic hostname.
  if (!hostname.empty()) {
    NETFAIL_ASSERT(hostname.size() <= 255, "hostname too long for TLV");
    w.u8(kTlvDynamicHostname);
    w.u8(static_cast<std::uint8_t>(hostname.size()));
    w.string(hostname);
  }

  // TLV 22: extended IS reachability, 11 bytes per entry, max 23 per TLV.
  constexpr std::size_t kIsEntrySize = 11;
  constexpr std::size_t kIsEntriesPerTlv = 255 / kIsEntrySize;
  for (std::size_t base = 0; base < is_reach.size(); base += kIsEntriesPerTlv) {
    const std::size_t n = std::min(kIsEntriesPerTlv, is_reach.size() - base);
    w.u8(kTlvExtendedIsReach);
    w.u8(static_cast<std::uint8_t>(n * kIsEntrySize));
    for (std::size_t i = base; i < base + n; ++i) {
      const IsReachEntry& e = is_reach[i];
      w.bytes(e.neighbor.bytes());
      w.u8(e.pseudonode);
      w.u24(e.metric & 0xffffff);
      w.u8(0);  // no sub-TLVs
    }
  }

  // TLV 135: extended IP reachability; entry size depends on prefix length.
  {
    std::size_t i = 0;
    while (i < ip_reach.size()) {
      // Fill one TLV greedily.
      std::size_t bytes_used = 0;
      std::size_t j = i;
      while (j < ip_reach.size()) {
        const std::size_t entry_size =
            4 + 1 +
            static_cast<std::size_t>((ip_reach[j].prefix.length() + 7) / 8);
        if (bytes_used + entry_size > 255) break;
        bytes_used += entry_size;
        ++j;
      }
      NETFAIL_ASSERT(j > i, "IP reach entry does not fit any TLV");
      w.u8(kTlvExtendedIpReach);
      w.u8(static_cast<std::uint8_t>(bytes_used));
      for (; i < j; ++i) {
        const IpReachEntry& e = ip_reach[i];
        w.u32(e.metric);
        // Control byte: up/down bit 7 = 0, sub-TLV bit 6 = 0, length in low 6.
        w.u8(static_cast<std::uint8_t>(e.prefix.length()));
        const std::uint32_t net = e.prefix.network().value();
        const int nbytes = (e.prefix.length() + 7) / 8;
        for (int b = 0; b < nbytes; ++b) {
          w.u8(static_cast<std::uint8_t>(net >> (24 - 8 * b)));
        }
      }
    }
  }

  std::vector<std::uint8_t> out = w.take();
  // Patch PDU length.
  const std::uint16_t len = static_cast<std::uint16_t>(out.size());
  out[kLspPduLengthOffset] = static_cast<std::uint8_t>(len >> 8);
  out[kLspPduLengthOffset + 1] = static_cast<std::uint8_t>(len);
  // Patch checksum: covers LSP ID (offset 12) through end; the checksum
  // field sits at offset 24, i.e. offset 12 within the covered span.
  const std::span<const std::uint8_t> covered{out.data() + kLspChecksumCoverStart,
                                              out.size() - kLspChecksumCoverStart};
  const std::uint16_t ck =
      fletcher_checksum(covered, kLspChecksumOffset - kLspChecksumCoverStart);
  out[kLspChecksumOffset] = static_cast<std::uint8_t>(ck >> 8);
  out[kLspChecksumOffset + 1] = static_cast<std::uint8_t>(ck);
  return out;
}

Result<Lsp> Lsp::decode(std::span<const std::uint8_t> data) {
  Lsp lsp;
  if (Status s = decode_into(data, lsp); !s) return s.error();
  return lsp;
}

namespace {

/// The one validating walk over an L2 LSP's bytes: checksum first (a
/// corrupted LSP must never reach the analysis), then the fixed header,
/// then every TLV, with every check, error code and message in this order.
/// What it reads goes to `sink`: `header(source, pseudonode, fragment,
/// sequence, lifetime)`, then per TLV `hostname(text)`, `is_reach(neighbor,
/// pseudonode, metric)` and `ip_reach(metric, network, length)`. A sink
/// sees a malformed PDU's leading fields before the walk fails on a later
/// one; callers discard what it collected on error.
template <typename Sink>
Status walk_lsp(std::span<const std::uint8_t> data, Sink& sink) {
  if (data.size() < kLspChecksumOffset + 2) {
    return make_error(ErrorCode::kTruncated, "LSP shorter than fixed header");
  }
  if (!fletcher_verify(data.subspan(kLspChecksumCoverStart),
                       kLspChecksumOffset - kLspChecksumCoverStart)) {
    return make_error(ErrorCode::kChecksumMismatch, "LSP checksum invalid");
  }

  // The walk runs once per received LSP — tens of millions of times in a
  // long capture — so it reads through a raw cursor with one bounds check
  // per fixed-size field group instead of a Result per octet. Errors are
  // constructed only on the (cold) malformed-input paths.
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();

  // Common 8-byte header. The size was established above (>= 26 bytes).
  if (p[0] != kProtocolDiscriminator) {
    return make_error(ErrorCode::kParseError,
                      strformat("bad protocol discriminator 0x%02x", p[0]));
  }
  if (p[3] != 0 && p[3] != 6) {
    return make_error(ErrorCode::kParseError, "unsupported ID length");
  }
  const std::uint8_t type = p[4] & 0x1f;
  if (type != kPduTypeLspL2) {
    return make_error(ErrorCode::kParseError,
                      strformat("not an L2 LSP: pdu type %u", type));
  }

  // Fixed LSP header: PDU length, lifetime, LSP ID, sequence, checksum,
  // flags (offsets 8..26).
  const std::uint16_t pdu_len =
      static_cast<std::uint16_t>((std::uint16_t{p[8]} << 8) | p[9]);
  if (pdu_len != data.size()) {
    return make_error(ErrorCode::kParseError, "PDU length field mismatch");
  }
  std::array<std::uint8_t, 6> src{};
  std::copy(p + 12, p + 18, src.begin());
  sink.header(OsiSystemId{src}, p[18], p[19],
              (std::uint32_t{p[20]} << 24) | (std::uint32_t{p[21]} << 16) |
                  (std::uint32_t{p[22]} << 8) | p[23],
              static_cast<std::uint16_t>((std::uint16_t{p[10]} << 8) | p[11]));
  // p[24..25] checksum (verified above), p[26] flags.
  if (data.size() < 27) {
    return make_error(ErrorCode::kTruncated, "need 1 bytes, have 0");
  }
  p += 27;

  // TLVs.
  while (p < end) {
    if (end - p < 2) {
      return make_error(ErrorCode::kTruncated, "need 1 bytes, have 0");
    }
    const std::uint8_t tlv_type = p[0];
    const std::uint8_t tlv_len = p[1];
    p += 2;
    if (end - p < tlv_len) {
      return make_error(ErrorCode::kTruncated,
                        "need " + std::to_string(tlv_len) + " bytes, have " +
                            std::to_string(end - p));
    }
    const std::uint8_t* b = p;
    const std::uint8_t* const bend = p + tlv_len;
    p = bend;

    switch (tlv_type) {
      case kTlvDynamicHostname:
        sink.hostname(std::string_view(reinterpret_cast<const char*>(b),
                                       static_cast<std::size_t>(tlv_len)));
        break;
      case kTlvExtendedIsReach: {
        while (b < bend) {
          // Fixed part: 6-byte neighbor, pseudonode, 24-bit metric, sub-TLV
          // length — 11 bytes checked at once.
          if (bend - b < 11) {
            return make_error(ErrorCode::kTruncated, "truncated IS-reach entry");
          }
          std::array<std::uint8_t, 6> nbr{};
          std::copy(b, b + 6, nbr.begin());
          const std::uint8_t pseudonode = b[6];
          const std::uint32_t metric =
              (std::uint32_t{b[7]} << 16) | (std::uint32_t{b[8]} << 8) | b[9];
          const std::uint8_t sub_len = b[10];
          b += 11;
          if (bend - b < sub_len) {
            return make_error(ErrorCode::kTruncated, "truncated IS-reach sub-TLVs");
          }
          b += sub_len;
          sink.is_reach(OsiSystemId{nbr}, pseudonode, metric);
        }
        break;
      }
      case kTlvExtendedIpReach: {
        while (b < bend) {
          // Fixed part: 32-bit metric + control byte.
          if (bend - b < 5) {
            return make_error(ErrorCode::kTruncated, "truncated IP-reach entry");
          }
          const std::uint32_t metric =
              (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
              (std::uint32_t{b[2]} << 8) | b[3];
          const std::uint8_t control = b[4];
          b += 5;
          const int plen = control & 0x3f;
          if (plen > 32) {
            return make_error(ErrorCode::kParseError, "bad prefix length");
          }
          const int nbytes = (plen + 7) / 8;
          if (bend - b < nbytes) {
            return make_error(ErrorCode::kTruncated, "truncated IP-reach prefix");
          }
          std::uint32_t net = 0;
          for (int i = 0; i < nbytes; ++i) {
            net |= std::uint32_t{b[i]} << (24 - 8 * i);
          }
          b += nbytes;
          if (control & 0x40) {  // sub-TLVs present
            if (bend - b < 1) {
              return make_error(ErrorCode::kTruncated, "truncated IP-reach sub-TLVs");
            }
            const std::uint8_t sub_len = *b;
            ++b;
            if (bend - b < sub_len) {
              return make_error(ErrorCode::kTruncated, "truncated IP-reach sub-TLVs");
            }
            b += sub_len;
          }
          sink.ip_reach(metric, net, plen);
        }
        break;
      }
      default:
        break;  // unknown TLVs are skipped, as the standard requires
    }
  }
  return Status::ok_status();
}

/// decode_into's sink: every field into an Lsp.
struct LspSink {
  Lsp& lsp;

  void header(const OsiSystemId& source, std::uint8_t pseudonode,
              std::uint8_t fragment, std::uint32_t sequence,
              std::uint16_t lifetime) {
    lsp.source = source;
    lsp.pseudonode = pseudonode;
    lsp.fragment = fragment;
    lsp.sequence = sequence;
    lsp.remaining_lifetime = lifetime;
  }
  void hostname(std::string_view text) { lsp.hostname.assign(text); }
  void is_reach(const OsiSystemId& neighbor, std::uint8_t pseudonode,
                std::uint32_t metric) {
    lsp.is_reach.push_back(IsReachEntry{neighbor, pseudonode, metric});
  }
  void ip_reach(std::uint32_t metric, std::uint32_t net, int length) {
    lsp.ip_reach.push_back(
        IpReachEntry{metric, Ipv4Prefix{Ipv4Address{net}, length}});
  }
};

/// LspReach::read's sink: the header fields, the hostname's bytes, each
/// neighbor once per entry, and the /31s only.
struct ReachSink {
  LspReach& out;

  void header(const OsiSystemId& source, std::uint8_t /*pseudonode*/,
              std::uint8_t /*fragment*/, std::uint32_t sequence,
              std::uint16_t lifetime) {
    out.source = source;
    out.sequence = sequence;
    out.remaining_lifetime = lifetime;
  }
  void hostname(std::string_view text) { out.hostname = text; }
  void is_reach(const OsiSystemId& neighbor, std::uint8_t /*pseudonode*/,
                std::uint32_t /*metric*/) {
    out.neighbors.emplace_back(neighbor, 1);
  }
  void ip_reach(std::uint32_t /*metric*/, std::uint32_t net, int length) {
    if (length == 31) {
      out.p2p_prefixes.push_back(Ipv4Prefix{Ipv4Address{net}, length});
    }
  }
};

}  // namespace

Status Lsp::decode_into(std::span<const std::uint8_t> data, Lsp& lsp) {
  // Reset the output while keeping its heap storage for reuse.
  lsp.source = OsiSystemId{};
  lsp.pseudonode = 0;
  lsp.fragment = 0;
  lsp.sequence = 1;
  lsp.remaining_lifetime = 1199;
  lsp.hostname.clear();
  lsp.is_reach.clear();
  lsp.ip_reach.clear();
  LspSink sink{lsp};
  return walk_lsp(data, sink);
}

Status LspReach::read(std::span<const std::uint8_t> data, LspReach& out) {
  out.source = OsiSystemId{};
  out.sequence = 1;
  out.remaining_lifetime = 1199;
  out.hostname = {};
  out.neighbors.clear();
  out.p2p_prefixes.clear();
  ReachSink sink{out};
  if (Status s = walk_lsp(data, sink); !s) return s;
  // Count repeated neighbors into one entry each, in neighbor order.
  std::sort(out.neighbors.begin(), out.neighbors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.neighbors.size(); ++r) {
    if (w > 0 && out.neighbors[w - 1].first == out.neighbors[r].first) {
      ++out.neighbors[w - 1].second;
    } else {
      out.neighbors[w++] = out.neighbors[r];
    }
  }
  out.neighbors.resize(w);
  std::sort(out.p2p_prefixes.begin(), out.p2p_prefixes.end());
  return Status::ok_status();
}

std::vector<std::uint8_t> PointToPointHello::encode() const {
  ByteWriter w;
  write_common_header(w, kPduTypeP2PHello, kP2PHelloHeaderLength);
  w.u8(0x02);  // circuit type: level 2 only
  w.bytes(source.bytes());
  w.u16(holding_time);
  const std::size_t len_offset = w.size();
  w.u16(0);  // PDU length, patched below
  w.u8(circuit_id);

  // TLV 240: point-to-point three-way adjacency (RFC 5303).
  w.u8(kTlvThreeWayAdjacency);
  w.u8(static_cast<std::uint8_t>(has_neighbor ? 15 : 5));
  w.u8(static_cast<std::uint8_t>(three_way_state));
  w.u32(circuit_id);  // extended local circuit ID
  if (has_neighbor) {
    w.bytes(neighbor.bytes());
    w.u32(0);  // neighbor extended circuit ID
  }

  std::vector<std::uint8_t> out = w.take();
  out[len_offset] = static_cast<std::uint8_t>(out.size() >> 8);
  out[len_offset + 1] = static_cast<std::uint8_t>(out.size());
  return out;
}

Result<PointToPointHello> PointToPointHello::decode(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  Result<std::uint8_t> type = read_common_header(r);
  if (!type) return type.error();
  if (*type != kPduTypeP2PHello) {
    return make_error(ErrorCode::kParseError, "not a point-to-point hello");
  }

  PointToPointHello hello;
  if (Result<std::uint8_t> circuit_type = r.u8(); !circuit_type) {
    return circuit_type.error();
  }
  Result<OsiSystemId> src = read_system_id(r);
  if (!src) return src.error();
  hello.source = *src;
  Result<std::uint16_t> hold = r.u16();
  if (!hold) return hold.error();
  hello.holding_time = *hold;
  Result<std::uint16_t> pdu_len = r.u16();
  if (!pdu_len) return pdu_len.error();
  if (*pdu_len != data.size()) {
    return make_error(ErrorCode::kParseError, "PDU length field mismatch");
  }
  Result<std::uint8_t> circuit = r.u8();
  if (!circuit) return circuit.error();
  hello.circuit_id = *circuit;

  while (!r.done()) {
    Result<std::uint8_t> tlv_type = r.u8();
    if (!tlv_type) return tlv_type.error();
    Result<std::uint8_t> tlv_len = r.u8();
    if (!tlv_len) return tlv_len.error();
    Result<ByteReader> body = r.sub(*tlv_len);
    if (!body) return body.error();
    if (*tlv_type != kTlvThreeWayAdjacency) continue;

    Result<std::uint8_t> state = body->u8();
    if (!state) return state.error();
    if (*state > 2) {
      return make_error(ErrorCode::kParseError, "bad three-way state");
    }
    hello.three_way_state = static_cast<ThreeWayState>(*state);
    if (Result<std::uint32_t> ext = body->u32(); !ext) return ext.error();
    if (body->remaining() >= 6) {
      Result<OsiSystemId> nbr = read_system_id(*body);
      if (!nbr) return nbr.error();
      hello.neighbor = *nbr;
      hello.has_neighbor = true;
    }
  }
  return hello;
}

Result<std::uint8_t> pdu_type(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  return read_common_header(r);
}

}  // namespace netfail::isis
