#include "tests/syslog/reference_parser.hpp"

#include "src/common/strfmt.hpp"
#include "src/common/time.hpp"

namespace netfail::syslog {
namespace {

/// Consume a run of spaces then a decimal integer from `s`. Mirrors the
/// leniency of sscanf's "%d" so hand-written test lines keep parsing.
bool take_int(std::string_view& s, int& out) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  int v = 0;
  while (!s.empty() && s.front() >= '0' && s.front() <= '9') {
    v = v * 10 + (s.front() - '0');
    s.remove_prefix(1);
  }
  out = v;
  return true;
}

bool take_char(std::string_view& s, char c) {
  if (s.empty() || s.front() != c) return false;
  s.remove_prefix(1);
  return true;
}

Result<LinkDirection> parse_direction(std::string_view s) {
  if (s == "Up" || s == "up") return LinkDirection::kUp;
  if (s == "Down" || s == "down") return LinkDirection::kDown;
  return make_error(ErrorCode::kParseError,
                    "bad direction '" + std::string(s) + "'");
}

}  // namespace

Result<Message> parse_message_scalar(std::string_view line) {
  Message m;

  // -- priority ---------------------------------------------------------------
  if (line.empty() || line[0] != '<') {
    return make_error(ErrorCode::kParseError, "missing <PRI>");
  }
  const std::size_t pri_end = line.find('>');
  if (pri_end == std::string_view::npos || pri_end > 4) {
    return make_error(ErrorCode::kParseError, "malformed <PRI>");
  }
  std::string_view rest = line.substr(pri_end + 1);

  // -- RFC 3164 timestamp: "Mmm dd hh:mm:ss" -----------------------------------
  if (rest.size() < 16) {
    return make_error(ErrorCode::kTruncated, "line too short for timestamp");
  }
  const std::string_view mon = rest.substr(0, 3);
  int month = 0;
  for (int i = 1; i <= 12; ++i) {
    if (mon == month_abbrev(i)) {
      month = i;
      break;
    }
  }
  if (month == 0) {
    return make_error(ErrorCode::kParseError,
                      "bad month '" + std::string(mon) + "'");
  }
  int day = 0, hh = 0, mm = 0, ss = 0;
  std::string_view ts = rest.substr(3, 13);
  if (!take_int(ts, day) || !take_int(ts, hh) || !take_char(ts, ':') ||
      !take_int(ts, mm) || !take_char(ts, ':') || !take_int(ts, ss)) {
    return make_error(ErrorCode::kParseError, "bad timestamp");
  }
  // Reject days from_civil cannot represent; out-of-range hh/mm/ss merely
  // roll over arithmetically and need no check to stay deterministic.
  if (day < 1 || day > 31) {
    return make_error(ErrorCode::kParseError, "bad timestamp");
  }
  // RFC 3164 timestamps carry no year; the collector assigns one from the
  // study period. 2010 covers Oct-Dec, 2011 the rest (see collector.cpp);
  // here we default to the convention used by our collector: the caller
  // rewrites the year via assign_year() below when it knows the capture date.
  m.timestamp = TimePoint::from_civil(month >= 10 ? 2010 : 2011, month, day, hh,
                                      mm, ss);

  rest = rest.substr(16);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  // -- hostname ----------------------------------------------------------------
  const std::size_t host_end = rest.find(' ');
  if (host_end == std::string_view::npos) {
    return make_error(ErrorCode::kTruncated, "missing hostname");
  }
  m.reporter = rest.substr(0, host_end);
  rest = rest.substr(host_end + 1);

  // -- locate the %FAC-SEV-MNEMONIC token ---------------------------------------
  const std::size_t pct = rest.find('%');
  if (pct == std::string_view::npos) {
    return make_error(ErrorCode::kNotFound, "no %MNEMONIC in line");
  }
  std::string_view body = rest.substr(pct);
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    return make_error(ErrorCode::kParseError, "mnemonic not terminated");
  }
  const std::string_view mnemonic = trim(body.substr(1, colon - 1));
  std::string_view text = trim(body.substr(colon + 1));

  m.dialect = mnemonic.starts_with("ROUTING-ISIS") ||
                      mnemonic.starts_with("PKT_INFRA")
                  ? RouterOs::kIosXr
                  : RouterOs::kIos;

  if (mnemonic == "CLNS-5-ADJCHANGE" || mnemonic == "ROUTING-ISIS-4-ADJCHANGE") {
    m.type = MessageType::kIsisAdjChange;
    // "...Adjacency to <nbr> (<intf>) [(L2)] <Dir>, <reason>"
    const std::size_t to = text.find("Adjacency to ");
    if (to == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "ADJCHANGE without neighbor");
    }
    std::string_view tail = text.substr(to + 13);
    const std::size_t sp = tail.find(' ');
    if (sp == std::string_view::npos) {
      return make_error(ErrorCode::kTruncated, "ADJCHANGE truncated");
    }
    m.neighbor = tail.substr(0, sp);
    const std::size_t open = tail.find('(');
    const std::size_t close = tail.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return make_error(ErrorCode::kParseError, "ADJCHANGE without interface");
    }
    m.interface = tail.substr(open + 1, close - open - 1);
    std::string_view after = trim(tail.substr(close + 1));
    if (after.starts_with("(L2)")) after = trim(after.substr(4));
    const std::size_t comma = after.find(',');
    const std::string_view dir_word =
        comma == std::string_view::npos ? after : trim(after.substr(0, comma));
    Result<LinkDirection> dir = parse_direction(dir_word);
    if (!dir) return dir.error();
    m.dir = *dir;
    if (comma != std::string_view::npos) {
      m.reason = std::string(trim(after.substr(comma + 1)));
    }
    return m;
  }

  const bool is_link = mnemonic == "LINK-3-UPDOWN" ||
                       mnemonic == "PKT_INFRA-LINK-3-UPDOWN";
  const bool is_lineproto = mnemonic == "LINEPROTO-5-UPDOWN" ||
                            mnemonic == "PKT_INFRA-LINEPROTO-5-UPDOWN";
  if (is_link || is_lineproto) {
    m.type = is_link ? MessageType::kLinkUpDown : MessageType::kLineProtoUpDown;
    const std::size_t intf = text.find("Interface ");
    if (intf == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "UPDOWN without interface");
    }
    std::string_view tail = text.substr(intf + 10);
    const std::size_t comma = tail.find(',');
    if (comma == std::string_view::npos) {
      return make_error(ErrorCode::kTruncated, "UPDOWN truncated");
    }
    m.interface = tail.substr(0, comma);
    const std::size_t state = tail.find("changed state to ");
    if (state == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "UPDOWN without state");
    }
    Result<LinkDirection> dir = parse_direction(trim(tail.substr(state + 17)));
    if (!dir) return dir.error();
    m.dir = *dir;
    return m;
  }

  return make_error(ErrorCode::kNotFound,
                    "unhandled mnemonic " + std::string(mnemonic));
}

}  // namespace netfail::syslog
