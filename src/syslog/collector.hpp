// The central syslog collector: an append-only store of received lines.
//
// Like CENIC's logging host, the collector records the raw text plus its own
// arrival timestamp. The arrival time matters because RFC 3164 timestamps
// carry no year — the extractor resolves the year against the capture time,
// exactly as operational log pipelines must.
//
// Each line is parsed exactly once, where it is received: constructing a
// ReceivedLine runs the tokenizer and stores its compact parse (LineParse)
// next to the text. Arrival stamping, shard routing (stream::ShardMap),
// extraction (extract_line) and the streaming engine all read those fields;
// none of them tokenizes the text again.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/byte_slice.hpp"
#include "src/common/time.hpp"
#include "src/syslog/message.hpp"

namespace netfail::syslog {

/// One received raw line and its parse. Construction always parses, so no
/// ReceivedLine can hold fields that disagree with its text. `received_at`
/// is the collector's arrival stamp, not part of the parse. The text is an
/// immutable slice: of the file a line was loaded from, or a block of its
/// own for a line received live.
class ReceivedLine {
 public:
  /// Parse `text`: the one place src/ calls the tokenizer. A line longer
  /// than the 32-bit reason offsets can address is a parse error.
  ReceivedLine(TimePoint at, ByteSlice text);
  /// The same over a copy of `text` in one block of its own.
  ReceivedLine(TimePoint at, std::string_view text)
      : ReceivedLine(at, ByteSlice::copy_of(text)) {}

  TimePoint received_at;

  std::string_view line() const { return line_.view(); }
  const LineParse& parse() const { return parse_; }
  ParseStatus status() const { return parse_.status; }
  /// Adjacency messages' free-text reason, rebuilt from the stored offsets.
  std::string_view reason() const {
    return line().substr(parse_.reason_offset, parse_.reason_length);
  }

 private:
  ByteSlice line_;
  LineParse parse_;
};

class Collector {
 public:
  /// Lines must arrive in nondecreasing time order.
  void receive(ReceivedLine rec);
  void reserve(std::size_t lines) { lines_.reserve(lines); }

  const std::vector<ReceivedLine>& lines() const { return lines_; }
  std::size_t size() const { return lines_.size(); }

 private:
  std::vector<ReceivedLine> lines_;
};

/// Resolve a year-less RFC 3164 timestamp against the collector's arrival
/// time: pick the year that brings the message time closest to arrival.
TimePoint resolve_year(TimePoint parsed, TimePoint received);

/// resolve_year with a memo of the work that depends only on the
/// reference's year and the day `parsed` falls on: consecutive lines nearly
/// always share both. A pure cache: resolve(parsed, reference) equals
/// resolve_year(parsed, reference) for any arguments in any order, so one
/// may be kept for a whole stream and never needs saving with it.
class YearResolver {
 public:
  TimePoint resolve(TimePoint parsed, TimePoint reference);

 private:
  int year_ = 0;                 // the reference's year, valid in [begin, end)
  TimePoint year_begin_;
  TimePoint year_end_;           // == year_begin_ until the first resolve
  std::int64_t memo_day_ = 0;    // the day (since the epoch) memoized
  bool memo_valid_ = false;
  /// Start of `memo_day_`'s month and day in years year_ - 1 .. year_ + 1,
  /// or kNoCandidate for a Feb 29 that year lacks.
  std::array<std::int64_t, 3> day_start_ms_{};
};

/// Arrival-time reconstruction for raw syslog lines that carry no arrival
/// timestamp of their own (a flat capture file, a UDP datagram): each
/// line's arrival is its own message timestamp year-resolved against a
/// moving cursor and clamped monotonic; lines that do not parse as a
/// tracked message (parse errors and kNotFound alike) inherit the cursor.
/// Both the file reader and the live UDP receiver use this, so a replayed
/// capture reconstructs byte-identical arrival times to the batch load of
/// the same file.
class ArrivalCursor {
 public:
  explicit ArrivalCursor(TimePoint capture_start) : cursor_(capture_start) {}

  /// Stamp the arrival of the next line, already parsed, advancing the
  /// cursor. Lines must be stamped in arrival order.
  void stamp(ReceivedLine& rec);

  /// Receive the next line: copy and parse it once, then stamp it as above.
  ReceivedLine stamp(std::string_view line);

  TimePoint cursor() const { return cursor_; }

 private:
  TimePoint cursor_;
  YearResolver years_;
};

}  // namespace netfail::syslog
