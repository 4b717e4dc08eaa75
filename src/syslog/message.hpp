// Router syslog messages: structured form, Cisco-dialect rendering, and the
// tokenizer that recovers structure from raw RFC 3164 lines.
//
// The study consumes two families of messages (paper Table 1 / sect. 3.4):
//   - IS-IS adjacency changes: "%CLNS-5-ADJCHANGE" (classic IOS) and
//     "%ROUTING-ISIS-4-ADJCHANGE" (IOS-XR);
//   - physical media state: "%LINK-3-UPDOWN" and "%LINEPROTO-5-UPDOWN"
//     (plus their IOS-XR "%PKT_INFRA-..." spellings).
// Messages travel as plain text; the collector parses each one once on
// receipt (ReceivedLine, collector.hpp), so rendering and parsing must
// round-trip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/events.hpp"
#include "src/common/result.hpp"
#include "src/common/sym.hpp"
#include "src/common/time.hpp"
#include "src/topology/topology.hpp"

namespace netfail::syslog {

enum class MessageType {
  kIsisAdjChange,    // CLNS-5-ADJCHANGE / ROUTING-ISIS-4-ADJCHANGE
  kLinkUpDown,       // LINK-3-UPDOWN / PKT_INFRA-LINK-3-UPDOWN
  kLineProtoUpDown,  // LINEPROTO-5-UPDOWN / PKT_INFRA-LINEPROTO-5-UPDOWN
};

/// The two-way classification used by the paper's Table 2.
enum class MessageClass { kIsisAdjacency, kPhysicalMedia };

inline MessageClass classify(MessageType t) {
  return t == MessageType::kIsisAdjChange ? MessageClass::kIsisAdjacency
                                          : MessageClass::kPhysicalMedia;
}

inline const char* message_class_name(MessageClass c) {
  return c == MessageClass::kIsisAdjacency ? "IS-IS" : "physical media";
}

struct Message {
  TimePoint timestamp;       // when the router generated the message
  Symbol reporter;           // hostname of the originating router (interned)
  RouterOs dialect = RouterOs::kIos;
  MessageType type = MessageType::kIsisAdjChange;
  LinkDirection dir = LinkDirection::kDown;
  Symbol interface;          // local interface the event refers to (interned)
  Symbol neighbor;           // adjacency messages: far-end hostname (interned)
  std::string reason;        // adjacency messages: free-text reason

  /// Render the full RFC 3164 line, e.g.
  /// "<189>Oct 20 04:11:17 lax-core-1 ...: %CLNS-5-ADJCHANGE: ISIS: ...".
  std::string render(unsigned sequence_number) const;

  /// Allocation-lean render: clears `out` and writes the same bytes as
  /// render() into it. Callers that reuse `out` across events amortize its
  /// capacity, so the render->transmit round trip allocates O(1) per event.
  void render_to(std::string& out, unsigned sequence_number) const;
};

/// What the tokenizer makes of one raw line. kNotFound is valid syslog of a
/// message type the study does not track; kParseError covers every garbled
/// or truncated line.
enum class ParseStatus : std::uint8_t { kOk, kNotFound, kParseError };

/// The parse of one raw line in compact, trivially copyable form: names are
/// interned Symbols and the free-text reason is an offset and length into
/// the parsed line. Offsets, not a string_view, because a moved short
/// (SSO) std::string moves its bytes and a view would dangle. Fields other
/// than `status` are meaningful only when status == kOk.
struct LineParse {
  TimePoint timestamp;  // RFC 3164 time, year not yet resolved
  Symbol reporter;      // hostname of the originating router
  Symbol interface;     // local interface the event refers to
  Symbol neighbor;      // adjacency messages: far-end hostname
  std::uint32_t reason_offset = 0;  // adjacency messages: free-text reason
  std::uint32_t reason_length = 0;
  ParseStatus status = ParseStatus::kParseError;
  // The three enums are int-sized; stored as one byte each, they keep the
  // whole parse at 32 bytes. Read them through the accessors below.
  std::uint8_t type_code = 0;     // MessageType
  std::uint8_t dir_code = 0;      // LinkDirection
  std::uint8_t dialect_code = 0;  // RouterOs

  MessageType type() const { return static_cast<MessageType>(type_code); }
  LinkDirection dir() const { return static_cast<LinkDirection>(dir_code); }
  RouterOs dialect() const { return static_cast<RouterOs>(dialect_code); }
};
static_assert(sizeof(LineParse) == 32 &&
              std::is_trivially_copyable_v<LineParse>);

/// The memchr/SWAR tokenizer (tokenizer.cpp, DESIGN.md §13): overwrite
/// `out` with the fields of a raw line (all but `status`, which the caller
/// sets), interning names straight into Symbols and recording the reason's
/// position in `line`. Zero-copy and
/// allocation-free on success. Valid syslog of an untracked type returns a
/// kNotFound error, anything garbled another error; the error text exists
/// for the differential oracle in tests/syslog. In src/ only
/// ReceivedLine's constructor calls this: every line is parsed exactly
/// once, where it is received.
Status tokenize(std::string_view line, LineParse& out);

}  // namespace netfail::syslog
