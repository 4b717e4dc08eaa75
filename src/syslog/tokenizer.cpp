// syslog::tokenize — the memchr/SWAR tokenizer (DESIGN.md §13).
//
// Cuts fields with memchr, decodes the fixed-width RFC 3164 timestamp by
// loading the digit block and subtracting '0' in parallel, and dispatches
// mnemonics by (length, memcmp) instead of a chain of string compares.
// Irregular spacing falls back to a lenient field walk with sscanf "%d"
// semantics. A byte-at-a-time reference parser in tests/syslog is the
// differential oracle: the fuzz suite (tests/syslog/tokenizer_fuzz_test.cpp)
// asserts both accept the same lines with the same fields and reject the
// rest with the same error code and message, on rendered, mutated,
// truncated, and garbage input.
#include <cstdint>
#include <cstring>

#include "src/common/strfmt.hpp"
#include "src/common/time.hpp"
#include "src/syslog/message.hpp"

namespace netfail::syslog {
namespace {

// ---- SWAR timestamp block ---------------------------------------------------

inline std::uint64_t load_le64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::uint64_t kByteFill = 0x0101010101010101ull;
constexpr std::uint64_t kZeros = 0x30ull * kByteFill;       // "00000000"
// "hh:mm:ss": colons at byte offsets 2 and 5.
constexpr std::uint64_t kColonMask = (0xFFull << 16) | (0xFFull << 40);
constexpr std::uint64_t kColons = (0x3Aull << 16) | (0x3Aull << 40);

/// Decode the fixed-width "hh:mm:ss" block at `p` in one 8-byte load.
/// Returns false unless both colons sit where they belong and the six
/// remaining bytes are all decimal digits.
inline bool swar_hhmmss(const char* p, int& hh, int& mm, int& ss) {
  const std::uint64_t v = load_le64(p);
  if ((v & kColonMask) != kColons) return false;
  // Substitute '0' for the colon bytes, then digit-test all eight bytes at
  // once: after xor with '0's a digit byte is 0..9, so adding 6 keeps its
  // high nibble clear iff the byte was a digit. A non-digit byte can carry
  // into its neighbor, but only after already flagging itself bad, so a
  // clean result is trustworthy.
  const std::uint64_t d = ((v & ~kColonMask) | (kZeros & kColonMask)) ^ kZeros;
  if (((d + 0x06ull * kByteFill) | d) & (0xF0ull * kByteFill)) return false;
  const auto byte = [d](int i) { return static_cast<int>((d >> (8 * i)) & 0xFF); };
  hh = byte(0) * 10 + byte(1);
  mm = byte(3) * 10 + byte(4);
  ss = byte(6) * 10 + byte(7);
  return true;
}

// ---- lenient fallbacks (verbatim scalar semantics) --------------------------

/// Consume a run of spaces then a decimal integer from `s`. Mirrors the
/// reference parser's take_int exactly (which mirrors sscanf "%d").
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

inline bool is_digit(char c) { return c >= '0' && c <= '9'; }

// ---- branch-light field decoders -------------------------------------------

/// Month abbreviation packed into 24 bits for a single-switch lookup.
constexpr std::uint32_t mon_key(char a, char b, char c) {
  return (std::uint32_t(std::uint8_t(a)) << 16) |
         (std::uint32_t(std::uint8_t(b)) << 8) | std::uint32_t(std::uint8_t(c));
}

inline int month_from_abbrev(const char* p) {
  switch (mon_key(p[0], p[1], p[2])) {
    case mon_key('J', 'a', 'n'): return 1;
    case mon_key('F', 'e', 'b'): return 2;
    case mon_key('M', 'a', 'r'): return 3;
    case mon_key('A', 'p', 'r'): return 4;
    case mon_key('M', 'a', 'y'): return 5;
    case mon_key('J', 'u', 'n'): return 6;
    case mon_key('J', 'u', 'l'): return 7;
    case mon_key('A', 'u', 'g'): return 8;
    case mon_key('S', 'e', 'p'): return 9;
    case mon_key('O', 'c', 't'): return 10;
    case mon_key('N', 'o', 'v'): return 11;
    case mon_key('D', 'e', 'c'): return 12;
    default: return 0;
  }
}

inline Result<LinkDirection> parse_direction(std::string_view s) {
  if (s.size() == 2 && (s == "Up" || s == "up")) return LinkDirection::kUp;
  if (s.size() == 4 && (s == "Down" || s == "down")) return LinkDirection::kDown;
  return make_error(ErrorCode::kParseError,
                    "bad direction '" + std::string(s) + "'");
}

/// memchr over a string_view; npos when absent.
inline std::size_t find_byte(std::string_view s, char c) {
  const void* p = std::memchr(s.data(), c, s.size());
  return p ? static_cast<std::size_t>(static_cast<const char*>(p) - s.data())
           : std::string_view::npos;
}

enum class Shape { kAdj, kUpDown, kUnknown };

struct Mnemonic {
  std::string_view text;
  Shape shape;
  RouterOs dialect;
  MessageType type;
};

/// The six recognized %FAC-SEV-MNEMONIC spellings. Their lengths are all
/// distinct, so a length match and one memcmp settle each.
constexpr Mnemonic kMnemonics[] = {
    {"CLNS-5-ADJCHANGE", Shape::kAdj, RouterOs::kIos,
     MessageType::kIsisAdjChange},
    {"ROUTING-ISIS-4-ADJCHANGE", Shape::kAdj, RouterOs::kIosXr,
     MessageType::kIsisAdjChange},
    {"LINK-3-UPDOWN", Shape::kUpDown, RouterOs::kIos, MessageType::kLinkUpDown},
    {"PKT_INFRA-LINK-3-UPDOWN", Shape::kUpDown, RouterOs::kIosXr,
     MessageType::kLinkUpDown},
    {"LINEPROTO-5-UPDOWN", Shape::kUpDown, RouterOs::kIos,
     MessageType::kLineProtoUpDown},
    {"PKT_INFRA-LINEPROTO-5-UPDOWN", Shape::kUpDown, RouterOs::kIosXr,
     MessageType::kLineProtoUpDown},
};

/// Resolve the mnemonic token, recording its dialect and type in `out`.
inline Shape classify_mnemonic(std::string_view m, LineParse& out) {
  for (const Mnemonic& k : kMnemonics) {
    if (m.size() == k.text.size() &&
        std::memcmp(m.data(), k.text.data(), m.size()) == 0) {
      out.dialect_code = static_cast<std::uint8_t>(k.dialect);
      out.type_code = static_cast<std::uint8_t>(k.type);
      return k.shape;
    }
  }
  return Shape::kUnknown;
}

}  // namespace

Status tokenize(std::string_view line, LineParse& out) {
  out = LineParse{};

  // -- priority: '<' then '>' within the first five bytes. The reference
  // parser rejects a '>' past index 4 with the same message it uses for a
  // missing one, so scanning only the prefix is exact.
  if (line.empty() || line[0] != '<') {
    return make_error(ErrorCode::kParseError, "missing <PRI>");
  }
  std::size_t pri_end = 0;
  const std::size_t pri_scan = line.size() < 5 ? line.size() : 5;
  for (std::size_t i = 1; i < pri_scan; ++i) {
    if (line[i] == '>') {
      pri_end = i;
      break;
    }
  }
  if (pri_end == 0) {
    return make_error(ErrorCode::kParseError, "malformed <PRI>");
  }
  std::string_view rest = line.substr(pri_end + 1);

  // -- RFC 3164 timestamp: "Mmm dd hh:mm:ss" ---------------------------------
  if (rest.size() < 16) {
    return make_error(ErrorCode::kTruncated, "line too short for timestamp");
  }
  const char* ts = rest.data();
  const int month = month_from_abbrev(ts);
  if (month == 0) {
    return make_error(ErrorCode::kParseError,
                      "bad month '" + std::string(rest.substr(0, 3)) + "'");
  }
  int day = 0, hh = 0, mm = 0, ss = 0;
  // Fixed-width fast path: " dd hh:mm:ss" with a space- or digit-padded day
  // and no digit spilling into byte 15 (the lenient parser would absorb it
  // into the seconds). Anything irregular falls through to the reference
  // field walk over the same 13-byte window.
  if (ts[3] == ' ' && (ts[4] == ' ' || is_digit(ts[4])) && is_digit(ts[5]) &&
      ts[6] == ' ' && !is_digit(ts[15]) && swar_hhmmss(ts + 7, hh, mm, ss)) {
    day = ts[4] == ' ' ? ts[5] - '0' : (ts[4] - '0') * 10 + (ts[5] - '0');
  } else {
    std::string_view window = rest.substr(3, 13);
    if (!take_int(window, day) || !take_int(window, hh) ||
        !take_char(window, ':') || !take_int(window, mm) ||
        !take_char(window, ':') || !take_int(window, ss)) {
      return make_error(ErrorCode::kParseError, "bad timestamp");
    }
  }
  // Same day-range guard as the reference parser: from_civil asserts on
  // days outside [1, 31].
  if (day < 1 || day > 31) {
    return make_error(ErrorCode::kParseError, "bad timestamp");
  }
  // RFC 3164 timestamps carry no year; same convention as the reference
  // parser (collector rewrites it via assign_year when it knows the capture
  // date): 2010 covers Oct-Dec, 2011 the rest.
  out.timestamp = TimePoint::from_civil(month >= 10 ? 2010 : 2011, month, day, hh,
                                      mm, ss);

  rest = rest.substr(16);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  // -- hostname ---------------------------------------------------------------
  const std::size_t host_end = find_byte(rest, ' ');
  if (host_end == std::string_view::npos) {
    return make_error(ErrorCode::kTruncated, "missing hostname");
  }
  out.reporter = Symbol(rest.substr(0, host_end));
  rest = rest.substr(host_end + 1);

  // -- locate the %FAC-SEV-MNEMONIC token --------------------------------------
  const std::size_t pct = find_byte(rest, '%');
  if (pct == std::string_view::npos) {
    return make_error(ErrorCode::kNotFound, "no %MNEMONIC in line");
  }
  std::string_view body = rest.substr(pct);
  const std::size_t colon = find_byte(body, ':');
  if (colon == std::string_view::npos) {
    return make_error(ErrorCode::kParseError, "mnemonic not terminated");
  }
  const std::string_view mnemonic = trim(body.substr(1, colon - 1));
  std::string_view text = trim(body.substr(colon + 1));

  const Shape shape = classify_mnemonic(mnemonic, out);

  if (shape == Shape::kAdj) {
    // "...Adjacency to <nbr> (<intf>) [(L2)] <Dir>, <reason>"
    const std::size_t to = text.find("Adjacency to ");
    if (to == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "ADJCHANGE without neighbor");
    }
    std::string_view tail = text.substr(to + 13);
    const std::size_t sp = find_byte(tail, ' ');
    if (sp == std::string_view::npos) {
      return make_error(ErrorCode::kTruncated, "ADJCHANGE truncated");
    }
    out.neighbor = Symbol(tail.substr(0, sp));
    const std::size_t open = find_byte(tail, '(');
    const std::size_t close = find_byte(tail, ')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return make_error(ErrorCode::kParseError, "ADJCHANGE without interface");
    }
    out.interface = Symbol(tail.substr(open + 1, close - open - 1));
    std::string_view after = trim(tail.substr(close + 1));
    if (after.starts_with("(L2)")) after = trim(after.substr(4));
    const std::size_t comma = find_byte(after, ',');
    const std::string_view dir_word =
        comma == std::string_view::npos ? after : trim(after.substr(0, comma));
    Result<LinkDirection> dir = parse_direction(dir_word);
    if (!dir) return dir.error();
    out.dir_code = static_cast<std::uint8_t>(*dir);
    if (comma != std::string_view::npos) {
      const std::string_view reason = trim(after.substr(comma + 1));
      out.reason_offset =
          static_cast<std::uint32_t>(reason.data() - line.data());
      out.reason_length = static_cast<std::uint32_t>(reason.size());
    }
    return Status::ok_status();
  }

  if (shape == Shape::kUpDown) {
    const std::size_t intf = text.find("Interface ");
    if (intf == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "UPDOWN without interface");
    }
    std::string_view tail = text.substr(intf + 10);
    const std::size_t comma = find_byte(tail, ',');
    if (comma == std::string_view::npos) {
      return make_error(ErrorCode::kTruncated, "UPDOWN truncated");
    }
    out.interface = Symbol(tail.substr(0, comma));
    const std::size_t state = tail.find("changed state to ");
    if (state == std::string_view::npos) {
      return make_error(ErrorCode::kParseError, "UPDOWN without state");
    }
    Result<LinkDirection> dir = parse_direction(trim(tail.substr(state + 17)));
    if (!dir) return dir.error();
    out.dir_code = static_cast<std::uint8_t>(*dir);
    return Status::ok_status();
  }

  return make_error(ErrorCode::kNotFound,
                    "unhandled mnemonic " + std::string(mnemonic));
}

}  // namespace netfail::syslog
