// Differential fuzz suite for the syslog parser: parse_message (the
// memchr/SWAR tokenizer) and parse_message_scalar (the byte-at-a-time
// reference in reference_parser.cpp) must return identical Result<Message>
// — same acceptance, same parsed fields, same error code AND message — on
// every input. The corpus
// is rendered round-trips plus every truncation, random byte mutations, and
// outright garbage, so the strict fast paths are exercised right at their
// bail-out edges. Runs under ASan with the tier-1 suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.hpp"
#include "src/syslog/message.hpp"
#include "tests/syslog/reference_parser.hpp"

namespace netfail::syslog {
namespace {

void expect_identical(std::string_view line) {
  const Result<Message> fast = parse_message(line);
  const Result<Message> scalar = parse_message_scalar(line);
  ASSERT_EQ(fast.ok(), scalar.ok()) << "line: [" << line << "]";
  if (!fast.ok()) {
    EXPECT_EQ(fast.error().code, scalar.error().code)
        << "line: [" << line << "] fast: " << fast.error().to_string()
        << " scalar: " << scalar.error().to_string();
    EXPECT_EQ(fast.error().message, scalar.error().message)
        << "line: [" << line << "]";
    return;
  }
  const Message& a = *fast;
  const Message& b = *scalar;
  EXPECT_EQ(a.timestamp, b.timestamp) << "line: [" << line << "]";
  EXPECT_EQ(a.reporter, b.reporter) << "line: [" << line << "]";
  EXPECT_EQ(a.dialect, b.dialect) << "line: [" << line << "]";
  EXPECT_EQ(a.type, b.type) << "line: [" << line << "]";
  EXPECT_EQ(a.dir, b.dir) << "line: [" << line << "]";
  EXPECT_EQ(a.interface, b.interface) << "line: [" << line << "]";
  EXPECT_EQ(a.neighbor, b.neighbor) << "line: [" << line << "]";
  EXPECT_EQ(a.reason, b.reason) << "line: [" << line << "]";
}

Message random_message(Rng& rng) {
  static const char* kHosts[] = {"edu042-gw-1", "core-7", "r", "dc1-agg-12",
                                 "x"};
  static const char* kIfaces[] = {"GigabitEthernet1/2", "POS0/1/0",
                                  "Serial3/0/0.12", "TenGigE0/1/0/3", "Gi0"};
  static const char* kReasons[] = {"", "holding time expired",
                                   "interface state change",
                                   "circuit disabled", "hello-max-age"};
  Message m;
  // Anywhere in (and a bit beyond) the study window, second granularity;
  // the renderer emits no year, so both parsers re-derive it from the month.
  m.timestamp = TimePoint::from_unix_seconds(
      rng.uniform_int(1285891200 /* Oct 1 2010 */, 1317427200 /* Oct 2011 */));
  m.reporter = Symbol(kHosts[rng.uniform_int(0, 4)]);
  m.dialect = rng.bernoulli(0.5) ? RouterOs::kIos : RouterOs::kIosXr;
  switch (rng.uniform_int(0, 2)) {
    case 0: m.type = MessageType::kIsisAdjChange; break;
    case 1: m.type = MessageType::kLinkUpDown; break;
    default: m.type = MessageType::kLineProtoUpDown; break;
  }
  m.dir = rng.bernoulli(0.5) ? LinkDirection::kUp : LinkDirection::kDown;
  m.interface = Symbol(kIfaces[rng.uniform_int(0, 4)]);
  m.neighbor = Symbol(kHosts[rng.uniform_int(0, 4)]);
  if (m.type == MessageType::kIsisAdjChange) {
    m.reason = kReasons[rng.uniform_int(0, 4)];
  }
  return m;
}

TEST(TokenizerFuzz, RenderedRoundTripsParseIdentically) {
  Rng rng(0xF00D);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    const Message m = random_message(rng);
    m.render_to(line, static_cast<unsigned>(rng.uniform_int(0, 999999)));
    const Result<Message> fast = parse_message(line);
    ASSERT_TRUE(fast.ok()) << "line: [" << line
                           << "] error: " << fast.error().to_string();
    expect_identical(line);
  }
}

TEST(TokenizerFuzz, EveryTruncationParsesIdentically) {
  Rng rng(0xBEEF);
  std::string line;
  for (int i = 0; i < 60; ++i) {
    const Message m = random_message(rng);
    m.render_to(line, static_cast<unsigned>(rng.uniform_int(0, 999999)));
    for (std::size_t n = 0; n <= line.size(); ++n) {
      expect_identical(std::string_view(line).substr(0, n));
    }
  }
}

TEST(TokenizerFuzz, ByteMutationsParseIdentically) {
  Rng rng(0xCAFE);
  std::string line;
  std::string mutated;
  for (int i = 0; i < 6000; ++i) {
    const Message m = random_message(rng);
    m.render_to(line, static_cast<unsigned>(rng.uniform_int(0, 999999)));
    mutated = line;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    expect_identical(mutated);
  }
}

TEST(TokenizerFuzz, GarbageLinesParseIdentically) {
  Rng rng(0xD00F);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    line.clear();
    const int len = static_cast<int>(rng.uniform_int(0, 120));
    const bool printable = rng.bernoulli(0.7);
    for (int c = 0; c < len; ++c) {
      line.push_back(printable
                         ? static_cast<char>(rng.uniform_int(0x20, 0x7E))
                         : static_cast<char>(rng.uniform_int(0, 255)));
    }
    // Bias half the printable lines toward syslog-shaped prefixes so the
    // fuzz actually reaches the field cuts past the PRI/timestamp gates.
    if (printable && rng.bernoulli(0.5)) {
      line.insert(0, "<189>Oct 20 04:11:17 ");
    }
    expect_identical(line);
  }
}

TEST(TokenizerFuzz, HandPickedEdgeCases) {
  static const char* kCases[] = {
      "",
      "<",
      "<>",
      "<189",
      "<189>",
      "<1890>Oct 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: x",
      "<189>Oct",
      "<189>Xyz 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: x",
      "<189>Oct 20 04:11:17",
      "<189>Oct  2 04:11:17 h 1: %CLNS-5-ADJCHANGE: ISIS: Adjacency to n "
      "(Gi0) (L2) Up, new adjacency",
      "<189>Oct 20 4:11:17 h 1: %CLNS-5-ADJCHANGE: x",      // irregular width
      "<189>Oct 20 04:11:170 h 1: %CLNS-5-ADJCHANGE: x",    // trailing digit
      "<189>Oct 20 04:1a:17 h 1: %CLNS-5-ADJCHANGE: x",     // bad digit
      "<189>Oct 20 04-11-17 h 1: %CLNS-5-ADJCHANGE: x",     // bad colons
      "<189>Oct 20 04:11:17 hostonly",
      "<189>Oct 20 04:11:17 h no-mnemonic here",
      "<189>Oct 20 04:11:17 h 1: %UNTERMINATED-MNEMONIC",
      "<189>Oct 20 04:11:17 h 1: %WEIRD-9-THING: body",
      "<189>Oct 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: no marker",
      "<189>Oct 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: ISIS: Adjacency to ",
      "<189>Oct 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: ISIS: Adjacency to n",
      "<189>Oct 20 04:11:17 h 1: %CLNS-5-ADJCHANGE: ISIS: Adjacency to n "
      "(Gi0) (L2) Sideways, huh",
      "<189>Oct 20 04:11:17 h 1: %LINK-3-UPDOWN: Interface",
      "<189>Oct 20 04:11:17 h 1: %LINK-3-UPDOWN: Interface Gi0, changed "
      "state to",
      "<189>Oct 20 04:11:17 h 1: %LINK-3-UPDOWN: Interface Gi0, changed "
      "state to sideways",
      "<189>Dec 31 23:59:59 h 1: %LINEPROTO-5-UPDOWN: Line protocol on "
      "Interface Gi0, changed state to down",
  };
  for (const char* c : kCases) expect_identical(c);
}

}  // namespace
}  // namespace netfail::syslog
