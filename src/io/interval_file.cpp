#include "src/io/interval_file.hpp"

#include <fstream>
#include <ostream>

#include "src/common/strfmt.hpp"

namespace netfail::io {

void write_interval_file(const IntervalSet& set, std::ostream& out) {
  for (const TimeRange& r : set.ranges()) {
    out << r.begin.unix_millis() << '\t' << r.end.unix_millis() << '\n';
  }
}

Status write_interval_file(const IntervalSet& set, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  write_interval_file(set, out);
  return out.good() ? Status::ok_status()
                    : Status(make_error(ErrorCode::kInternal,
                                        "write failed for " + path));
}

Result<IntervalSet> read_interval_file(std::istream& in) {
  IntervalSet set;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::vector<std::string> cols = split(line, '\t');
    TimeRange gap;
    if (cols.size() < 2 || !parse_input_millis(cols[0], gap.begin) ||
        !parse_input_millis(cols[1], gap.end) || gap.end < gap.begin) {
      return make_error(ErrorCode::kParseError,
                        strformat("bad interval at line %zu", lineno));
    }
    set.add(gap);
  }
  return set;
}

Result<IntervalSet> read_interval_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  return read_interval_file(in);
}

}  // namespace netfail::io
