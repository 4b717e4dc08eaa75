#include "src/io/syslog_file.hpp"

#include <fstream>
#include <ostream>
#include <utility>

namespace netfail::io {
namespace {

/// The number of lines the reader below keeps (non-empty once a trailing
/// '\r' is dropped) in what is left of a seekable stream, which is then
/// rewound; 0 when the stream cannot seek. Blank lines do not count, so a
/// reserve of this size never exceeds what the kept lines need anyway.
std::size_t count_kept_lines(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) return 0;
  std::size_t kept = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line != "\r") ++kept;
  }
  in.clear();
  in.seekg(start);
  return kept;
}

}  // namespace

void write_syslog_file(const syslog::Collector& collector, std::ostream& out) {
  for (const syslog::ReceivedLine& line : collector.lines()) {
    out << line.line() << '\n';
  }
}

Status write_syslog_file(const syslog::Collector& collector,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  write_syslog_file(collector, out);
  return out.good() ? Status::ok_status()
                    : Status(make_error(ErrorCode::kInternal,
                                        "write failed for " + path));
}

Result<syslog::Collector> read_syslog_file(std::istream& in,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats) {
  SyslogReadStats local;
  SyslogReadStats& st = stats ? *stats : local;
  syslog::Collector collector;
  // Size the store up front: growing a vector of parsed lines by doubling
  // strands the outgrown buffers in the heap, about 10 MB of peak RSS on a
  // 357k-line capture.
  collector.reserve(count_kept_lines(in));
  // The same arrival reconstruction the live UDP receiver applies, so a
  // capture file and its zero-loss replay load identically.
  syslog::ArrivalCursor cursor(capture_start);

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) {
      ++st.blank;
      continue;
    }
    ++st.lines;
    syslog::ReceivedLine rec = cursor.stamp(line);
    if (rec.status() != syslog::ParseStatus::kOk) ++st.unparsable;
    collector.receive(std::move(rec));
  }
  return collector;
}

Result<syslog::Collector> read_syslog_file(const std::string& path,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  return read_syslog_file(in, capture_start, stats);
}

}  // namespace netfail::io
