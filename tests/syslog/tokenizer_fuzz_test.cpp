// Differential fuzz suite for the syslog parser: tokenize (the memchr/SWAR
// tokenizer) and parse_message_scalar (the byte-at-a-time reference in
// reference_parser.cpp) must agree on every input — same acceptance, same
// parsed fields (the reason rebuilt from its stored offsets), same error
// code AND message. The corpus (fuzz_corpus.hpp) is rendered round-trips
// plus every truncation, random byte mutations, and outright garbage, so
// the strict fast paths are exercised right at their bail-out edges. Runs
// under ASan with the tier-1 suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.hpp"
#include "src/syslog/message.hpp"
#include "tests/syslog/fuzz_corpus.hpp"
#include "tests/syslog/reference_parser.hpp"

namespace netfail::syslog {
namespace {

void expect_identical(std::string_view line) {
  LineParse a;
  const Status fast = tokenize(line, a);
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
  const Message& b = *scalar;
  EXPECT_EQ(a.timestamp, b.timestamp) << "line: [" << line << "]";
  EXPECT_EQ(a.reporter, b.reporter) << "line: [" << line << "]";
  EXPECT_EQ(a.dialect(), b.dialect) << "line: [" << line << "]";
  EXPECT_EQ(a.type(), b.type) << "line: [" << line << "]";
  EXPECT_EQ(a.dir(), b.dir) << "line: [" << line << "]";
  EXPECT_EQ(a.interface, b.interface) << "line: [" << line << "]";
  EXPECT_EQ(a.neighbor, b.neighbor) << "line: [" << line << "]";
  EXPECT_EQ(line.substr(a.reason_offset, a.reason_length), b.reason)
      << "line: [" << line << "]";
}

TEST(TokenizerFuzz, RenderedRoundTripsParseIdentically) {
  Rng rng(0xF00D);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    render_random(rng, line);
    LineParse parse;
    const Status fast = tokenize(line, parse);
    ASSERT_TRUE(fast.ok()) << "line: [" << line
                           << "] error: " << fast.error().to_string();
    expect_identical(line);
  }
}

TEST(TokenizerFuzz, EveryTruncationParsesIdentically) {
  Rng rng(0xBEEF);
  std::string line;
  for (int i = 0; i < 60; ++i) {
    render_random(rng, line);
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
    render_random(rng, line);
    mutated = line;
    mutate_bytes(rng, mutated);
    expect_identical(mutated);
  }
}

TEST(TokenizerFuzz, GarbageLinesParseIdentically) {
  Rng rng(0xD00F);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    garbage_line(rng, line);
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
