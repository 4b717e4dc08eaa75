// Router syslog messages: structured form, Cisco-dialect rendering, and the
// parser that recovers structure from raw RFC 3164 lines.
//
// The study consumes two families of messages (paper Table 1 / sect. 3.4):
//   - IS-IS adjacency changes: "%CLNS-5-ADJCHANGE" (classic IOS) and
//     "%ROUTING-ISIS-4-ADJCHANGE" (IOS-XR);
//   - physical media state: "%LINK-3-UPDOWN" and "%LINEPROTO-5-UPDOWN"
//     (plus their IOS-XR "%PKT_INFRA-..." spellings).
// Messages travel as plain text; the analysis pipeline re-parses them, so
// rendering and parsing must round-trip.
#pragma once

#include <string>

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
  /// "<189>Oct 20 04:11:17 edu042-gw-1 ...: %CLNS-5-ADJCHANGE: ISIS: ...".
  std::string render(unsigned sequence_number) const;

  /// Allocation-lean render: clears `out` and writes the same bytes as
  /// render() into it. Callers that reuse `out` across events amortize its
  /// capacity, so the render->transmit round trip allocates O(1) per event.
  void render_to(std::string& out, unsigned sequence_number) const;
};

/// Parse a raw syslog line back into structure. Zero-copy: tokenizes the
/// line as string_views and resolves names straight into interned Symbols;
/// only the free-text `reason` is copied. Lines that are valid syslog but
/// not one of the message types above return kNotFound; garbled lines
/// return kParseError. Implemented by the memchr/SWAR tokenizer in
/// tokenizer.cpp (DESIGN.md §13).
Result<Message> parse_message(std::string_view line);

}  // namespace netfail::syslog
