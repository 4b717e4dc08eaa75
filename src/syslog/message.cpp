#include "src/syslog/message.hpp"

#include <cstdarg>
#include <cstdio>

namespace netfail::syslog {
namespace {

// facility local7 (23), severities per message type.
int priority_for(MessageType t) {
  switch (t) {
    case MessageType::kIsisAdjChange: return 23 * 8 + 5;    // notice
    case MessageType::kLinkUpDown: return 23 * 8 + 3;       // error
    case MessageType::kLineProtoUpDown: return 23 * 8 + 5;  // notice
  }
  return 23 * 8 + 6;
}

/// snprintf straight onto the end of `out` (the pieces here are all far
/// smaller than the stack buffer).
void appendf(std::string& out, const char* fmt, ...) {
  char buf[96];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_body_ios(std::string& out, const Message& m) {
  switch (m.type) {
    case MessageType::kIsisAdjChange:
      out.append("%CLNS-5-ADJCHANGE: ISIS: Adjacency to ");
      out.append(m.neighbor.view());
      out.append(" (");
      out.append(m.interface.view());
      out.append(") ");
      out.append(m.dir == LinkDirection::kUp ? "Up" : "Down");
      out.append(", ");
      out.append(m.reason);
      return;
    case MessageType::kLinkUpDown:
      out.append("%LINK-3-UPDOWN: Interface ");
      out.append(m.interface.view());
      out.append(", changed state to ");
      out.append(m.dir == LinkDirection::kUp ? "up" : "down");
      return;
    case MessageType::kLineProtoUpDown:
      out.append("%LINEPROTO-5-UPDOWN: Line protocol on Interface ");
      out.append(m.interface.view());
      out.append(", changed state to ");
      out.append(m.dir == LinkDirection::kUp ? "up" : "down");
      return;
  }
}

void append_body_iosxr(std::string& out, const Message& m) {
  switch (m.type) {
    case MessageType::kIsisAdjChange:
      out.append("%ROUTING-ISIS-4-ADJCHANGE : Adjacency to ");
      out.append(m.neighbor.view());
      out.append(" (");
      out.append(m.interface.view());
      out.append(") (L2) ");
      out.append(m.dir == LinkDirection::kUp ? "Up" : "Down");
      out.append(", ");
      out.append(m.reason);
      return;
    case MessageType::kLinkUpDown:
      out.append("%PKT_INFRA-LINK-3-UPDOWN : Interface ");
      out.append(m.interface.view());
      out.append(", changed state to ");
      out.append(m.dir == LinkDirection::kUp ? "Up" : "Down");
      return;
    case MessageType::kLineProtoUpDown:
      out.append("%PKT_INFRA-LINEPROTO-5-UPDOWN : Line protocol on Interface ");
      out.append(m.interface.view());
      out.append(", changed state to ");
      out.append(m.dir == LinkDirection::kUp ? "Up" : "Down");
      return;
  }
}

}  // namespace

void Message::render_to(std::string& out, unsigned sequence_number) const {
  out.clear();
  const CivilTime c = to_civil(timestamp);
  // "<PRI>Mmm dd hh:mm:ss hostname " (RFC 3164; day space-padded).
  appendf(out, "<%d>%s %2d %02d:%02d:%02d ", priority_for(type),
          month_abbrev(c.month), c.day, c.hour, c.minute, c.second);
  out.append(reporter.view());
  out.push_back(' ');
  if (dialect == RouterOs::kIosXr) {
    // IOS-XR: "node: process[pid]: %MNEMONIC : text".
    appendf(out, "RP/0/RSP0/CPU0:isis[%u]: ", 1000 + sequence_number % 10);
    append_body_iosxr(out, *this);
    return;
  }
  // Classic IOS: "seq: *timestamp: %MNEMONIC: text".
  appendf(out, "%u: *%s %2d %02d:%02d:%02d.%03d: ", sequence_number,
          month_abbrev(c.month), c.day, c.hour, c.minute, c.second,
          c.millisecond);
  append_body_ios(out, *this);
}

std::string Message::render(unsigned sequence_number) const {
  std::string out;
  render_to(out, sequence_number);
  return out;
}

}  // namespace netfail::syslog
