// Reading and writing collector-style syslog files.
//
// Real deployments keep what CENIC kept: flat text files of raw RFC 3164
// lines, one per message, ordered by arrival. These helpers round-trip a
// Collector through that format so the analysis pipeline can run over real
// captures. Because RFC 3164 lines carry no year and no arrival timestamp,
// the reader takes a capture-start hint and reconstructs monotonic arrival
// times from the message timestamps (the standard operational workaround).
#pragma once

#include <iosfwd>
#include <string>

#include "src/common/result.hpp"
#include "src/common/time.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::io {

/// Write one line per received message (the raw text, newline-terminated).
void write_syslog_file(const syslog::Collector& collector, std::ostream& out);
Status write_syslog_file(const syslog::Collector& collector,
                         const std::string& path);

struct SyslogReadStats {
  std::size_t lines = 0;
  std::size_t blank = 0;
  /// Lines that are not a tracked message (parse errors and untracked
  /// types alike): they take the cursor as arrival and are kept anyway.
  std::size_t unparsable = 0;
};

/// Load a flat syslog file into a Collector. `capture_start` anchors year
/// resolution; arrival times are reconstructed as the (year-resolved)
/// message timestamps, nudged forward where needed to stay monotonic.
///
/// Both overloads take the input as one buffer (a regular file mapped
/// read-only, a stream read to its end, see file_bytes.hpp) and cut it into
/// four byte ranges that start on a line. Each range's lines are parsed
/// (ReceivedLine's one tokenizer call) on its own thread; then the calling
/// thread stamps every line's arrival in file order with one ArrivalCursor,
/// the same algorithm a UDP receiver runs per datagram, so the result does
/// not depend on where the cuts fall. Every line's text is a slice of the
/// buffer, which lives as long as the last line that points into it.
Result<syslog::Collector> read_syslog_file(std::istream& in,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats = nullptr);
Result<syslog::Collector> read_syslog_file(const std::string& path,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats = nullptr);

}  // namespace netfail::io
