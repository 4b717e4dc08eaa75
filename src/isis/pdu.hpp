// IS-IS PDU structures and binary codec (ISO 10589 + RFC 5305 extended
// reachability TLVs + RFC 1195 dynamic hostname).
//
// The paper's listener consumes exactly four LSP fields (Table 1): LSP ID,
// Host Name (TLV 137), Extended IS Reachability (TLV 22) and Extended IP
// Reachability (TLV 135). We encode real binary LSPs with valid Fletcher
// checksums and parse them back, so the analysis pipeline works from bytes
// the same way the PyRT-based listener did. Point-to-point hellos
// (RFC 5303 three-way handshake) are included for the adjacency FSM.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.hpp"
#include "src/topology/ipv4.hpp"
#include "src/topology/osi.hpp"

namespace netfail::isis {

// PDU type codes (low 5 bits of the type octet).
inline constexpr std::uint8_t kPduTypeP2PHello = 17;
inline constexpr std::uint8_t kPduTypeLspL2 = 20;

// TLV codes.
inline constexpr std::uint8_t kTlvExtendedIsReach = 22;
inline constexpr std::uint8_t kTlvExtendedIpReach = 135;
inline constexpr std::uint8_t kTlvDynamicHostname = 137;
inline constexpr std::uint8_t kTlvThreeWayAdjacency = 240;

/// One neighbor entry in TLV 22. `pseudonode` is 0 for point-to-point
/// adjacencies (all CENIC backbone links are point-to-point).
struct IsReachEntry {
  OsiSystemId neighbor;
  std::uint8_t pseudonode = 0;
  std::uint32_t metric = 0;  // 24-bit wide metric

  auto operator<=>(const IsReachEntry&) const = default;
};

/// One prefix entry in TLV 135.
struct IpReachEntry {
  std::uint32_t metric = 0;
  Ipv4Prefix prefix;

  auto operator<=>(const IpReachEntry&) const = default;
};

/// A level-2 link-state PDU.
struct Lsp {
  OsiSystemId source;
  std::uint8_t pseudonode = 0;
  std::uint8_t fragment = 0;
  std::uint32_t sequence = 1;
  std::uint16_t remaining_lifetime = 1199;
  std::string hostname;                  // TLV 137, may be empty
  std::vector<IsReachEntry> is_reach;    // TLV 22 (possibly several)
  std::vector<IpReachEntry> ip_reach;    // TLV 135 (possibly several)

  /// "1921.6800.1007.00-00" — LSP ID rendering used in logs.
  std::string lsp_id_string() const;

  std::vector<std::uint8_t> encode() const;
  /// Parses and verifies the Fletcher checksum.
  static Result<Lsp> decode(std::span<const std::uint8_t> data);
  /// Allocation-lean decode into an existing Lsp: `out` is reset and its
  /// hostname/is_reach/ip_reach storage reused, so a caller decoding a
  /// stream through one scratch Lsp allocates O(1) amortized per packet.
  static Status decode_into(std::span<const std::uint8_t> data, Lsp& out);

  bool operator==(const Lsp&) const = default;
};

/// What extraction diffs of an L2 LSP, read by the same validating walk as
/// Lsp::decode_into (the same checks, in the same order, with the same
/// error codes and messages), but into the two sorted sets the differ
/// compares instead of per-entry vectors.
struct LspReach {
  OsiSystemId source;
  std::uint32_t sequence = 1;
  std::uint16_t remaining_lifetime = 1199;
  /// The last TLV 137's text, a view into the PDU bytes; empty if none.
  std::string_view hostname;
  /// TLV 22's neighbors with how many entries name each, sorted by
  /// neighbor, one element per neighbor.
  std::vector<std::pair<OsiSystemId, int>> neighbors;
  /// TLV 135's /31 prefixes, sorted, repeats kept.
  std::vector<Ipv4Prefix> p2p_prefixes;

  /// Reads `data` into `out`, reusing its storage; on error `out` holds
  /// nothing to rely on.
  static Status read(std::span<const std::uint8_t> data, LspReach& out);
};

/// RFC 5303 three-way adjacency state, as carried in TLV 240.
enum class ThreeWayState : std::uint8_t { kUp = 0, kInitializing = 1, kDown = 2 };

/// A point-to-point IIH (hello).
struct PointToPointHello {
  OsiSystemId source;
  std::uint16_t holding_time = 30;
  std::uint8_t circuit_id = 1;
  ThreeWayState three_way_state = ThreeWayState::kDown;
  /// Valid when the sender has seen the neighbor's hello (init or up).
  bool has_neighbor = false;
  OsiSystemId neighbor;

  std::vector<std::uint8_t> encode() const;
  static Result<PointToPointHello> decode(std::span<const std::uint8_t> data);

  bool operator==(const PointToPointHello&) const = default;
};

/// Peek at the PDU type of a raw IS-IS packet.
Result<std::uint8_t> pdu_type(std::span<const std::uint8_t> data);

}  // namespace netfail::isis
