// The seeded syslog corpus shared by the differential suites
// (tokenizer_fuzz_test.cpp, single_parse_test.cpp): rendered messages of
// every shape and dialect, byte mutations of them, and garbage lines. No
// libFuzzer — a seeded Rng makes every run the same corpus.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/rng.hpp"
#include "src/syslog/message.hpp"

namespace netfail::syslog {

/// A random well-formed message: a few hosts and interfaces, every type,
/// direction and dialect, second-granularity times across the study window.
inline Message random_message(Rng& rng) {
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

/// Render a random message with a random sequence number into `line`.
inline void render_random(Rng& rng, std::string& line) {
  const Message m = random_message(rng);
  m.render_to(line, static_cast<unsigned>(rng.uniform_int(0, 999999)));
}

/// Overwrite 1-4 random bytes of a non-empty `line` with random bytes.
inline void mutate_bytes(Rng& rng, std::string& line) {
  const int flips = static_cast<int>(rng.uniform_int(1, 4));
  for (int f = 0; f < flips; ++f) {
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
    line[pos] = static_cast<char>(rng.uniform_int(0, 255));
  }
}

/// Replace `line` with up to 120 random bytes, mostly printable. Half the
/// printable lines get a syslog-shaped prefix so the fuzz actually reaches
/// the field cuts past the PRI/timestamp gates.
inline void garbage_line(Rng& rng, std::string& line) {
  line.clear();
  const int len = static_cast<int>(rng.uniform_int(0, 120));
  const bool printable = rng.bernoulli(0.7);
  for (int c = 0; c < len; ++c) {
    line.push_back(printable ? static_cast<char>(rng.uniform_int(0x20, 0x7E))
                             : static_cast<char>(rng.uniform_int(0, 255)));
  }
  if (printable && rng.bernoulli(0.5)) {
    line.insert(0, "<189>Oct 20 04:11:17 ");
  }
}

}  // namespace netfail::syslog
