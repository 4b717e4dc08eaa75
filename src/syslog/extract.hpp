// Collector lines -> link state transitions.
//
// Reads the parse each received line already carries (ReceivedLine,
// collector.hpp; nothing here tokenizes), resolves (reporter, interface) to
// a census link, and emits one transition per message. Messages stay per-reporter:
// the matcher needs to know whether one or both ends of a link reported
// (paper Table 3); the failure reconstruction merges the two ends later.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/config/census.hpp"
#include "src/syslog/collector.hpp"
#include "src/syslog/message.hpp"

namespace netfail::syslog {

struct SyslogTransition {
  TimePoint time;  // message timestamp, year-resolved
  LinkDirection dir = LinkDirection::kDown;
  MessageClass cls = MessageClass::kIsisAdjacency;
  MessageType type = MessageType::kIsisAdjChange;
  LinkId link;  // resolved census link; invalid when resolution failed
  Symbol reporter;
  std::string reason;
};

struct SyslogExtractionStats {
  std::size_t lines_seen = 0;
  std::size_t parse_failures = 0;
  std::size_t irrelevant_lines = 0;   // valid syslog, not a type we track
  std::size_t unresolved_links = 0;   // (reporter, interface) not in census
};

struct SyslogExtraction {
  std::vector<SyslogTransition> transitions;
  SyslogExtractionStats stats;
};

SyslogExtraction extract_transitions(const Collector& collector,
                                     const LinkCensus& census);

/// Incremental form: resolve one received line from its stored parse.
/// Returns the transition when the line is a tracked message type on a
/// census link; otherwise updates `stats` and returns nullopt. The message
/// year is resolved against the arrival time through `years`, which the
/// caller keeps across lines. Batch extraction is a loop over this
/// function, so the streaming engine sees identical transitions.
std::optional<SyslogTransition> extract_line(const ReceivedLine& rec,
                                             const LinkCensus& census,
                                             YearResolver& years,
                                             SyslogExtractionStats& stats);

}  // namespace netfail::syslog
