#include "src/io/syslog_file.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <future>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "src/io/file_bytes.hpp"

namespace netfail::io {
namespace {

/// Calls `fn(line)` for each line of `range` as std::getline splits it,
/// with one trailing '\r' dropped: a final line without '\n' counts when
/// it is not empty.
template <typename Fn>
void for_each_line(std::string_view range, Fn&& fn) {
  for (std::size_t start = 0; start < range.size();) {
    const std::size_t end = std::min(range.find('\n', start), range.size());
    std::string_view line = range.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(line);
    start = end + 1;
  }
}

/// One byte range's lines, parsed, in file order; arrivals not yet stamped.
struct LaneLines {
  std::vector<syslog::ReceivedLine> lines;
  std::size_t blank = 0;
};

/// `bytes` under a reference count of its own, which holds `bytes`'s: a
/// lane that cuts many slices off its own handle never contends with the
/// other lanes for one count.
ByteSlice own_handle(const ByteSlice& bytes) {
  auto holder = std::make_shared<const ByteSlice>(bytes);
  return ByteSlice(std::shared_ptr<const char>(holder, bytes.view().data()),
                   0, bytes.size());
}

/// The lines of `whole`'s bytes [begin, end), each a slice of them through
/// this lane's own handle. The second pass drops the pages behind it.
LaneLines parse_range(const ByteSlice& whole, std::size_t begin,
                      std::size_t end) {
  const ByteSlice file = own_handle(whole);
  const std::string_view all = file.view();
  const std::string_view range = all.substr(begin, end - begin);
  LaneLines out;
  // Size the store up front: growing a vector of parsed lines by doubling
  // strands the outgrown buffers in the heap. Blank lines are not stored,
  // so they do not count.
  std::size_t kept = 0;
  for_each_line(range, [&](std::string_view line) { kept += !line.empty(); });
  out.lines.reserve(kept);
  ReleaseBehind release(range.data());
  for_each_line(range, [&](std::string_view line) {
    if (line.empty()) {
      ++out.blank;
    } else {
      out.lines.emplace_back(
          TimePoint{},
          file.substr(static_cast<std::size_t>(line.data() - all.data()),
                      line.size()));
    }
    release.consumed(line);
  });
  return out;
}

/// `text` cut into `kReadLanes` ranges of about equal size, each
/// starting on a line (so a range may be empty): range i is
/// [cuts[i], cuts[i + 1]).
std::array<std::size_t, kReadLanes + 1> line_cuts(std::string_view text) {
  std::array<std::size_t, kReadLanes + 1> cuts{};
  cuts[kReadLanes] = text.size();
  for (std::size_t i = 1; i < kReadLanes; ++i) {
    std::size_t p = std::max(text.size() * i / kReadLanes, cuts[i - 1]);
    if (p > 0 && p < text.size() && text[p - 1] != '\n') {
      p = std::min(text.find('\n', p), text.size() - 1) + 1;
    }
    cuts[i] = p;
  }
  return cuts;
}

/// Both overloads: parse `file` on lanes, then stamp in file order. Every
/// line is a slice of `file`'s block, which the collector's lines keep.
syslog::Collector collect(const ByteSlice& file, TimePoint capture_start,
                          SyslogReadStats& st) {
  // Parse: range 0 on this thread, the others on tasks. The ranges' lines
  // live as long as the collector, so which heap they come from does not
  // matter.
  std::array<LaneLines, kReadLanes> lanes;
  const auto cuts = line_cuts(file.view());
  std::array<std::future<LaneLines>, kReadLanes> tasks;
  for (std::size_t i = 1; i < kReadLanes; ++i) {
    if (cuts[i] == cuts[i + 1]) continue;
    tasks[i] = std::async(std::launch::async, [&file, &cuts, i] {
      return parse_range(file, cuts[i], cuts[i + 1]);
    });
  }
  lanes[0] = parse_range(file, cuts[0], cuts[1]);
  for (std::size_t i = 1; i < kReadLanes; ++i) {
    if (tasks[i].valid()) lanes[i] = tasks[i].get();
  }

  // Stamp arrivals in file order, with the same cursor the live UDP
  // receiver applies, so a capture file and its zero-loss replay load
  // identically. Each range's buffer is freed once its lines moved.
  std::size_t kept = 0;
  for (const LaneLines& lane : lanes) kept += lane.lines.size();
  syslog::Collector collector;
  collector.reserve(kept);
  syslog::ArrivalCursor cursor(capture_start);
  for (LaneLines& lane : lanes) {
    st.lines += lane.lines.size();
    st.blank += lane.blank;
    for (syslog::ReceivedLine& rec : lane.lines) {
      cursor.stamp(rec);
      if (rec.status() != syslog::ParseStatus::kOk) ++st.unparsable;
      collector.receive(std::move(rec));
    }
    lane = LaneLines{};
  }
  return collector;
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
  return collect(read_stream_bytes(in), capture_start, stats ? *stats : local);
}

Result<syslog::Collector> read_syslog_file(const std::string& path,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats) {
  Result<ByteSlice> file = read_file_bytes(path);
  if (!file) return file.error();
  SyslogReadStats local;
  return collect(*file, capture_start, stats ? *stats : local);
}

}  // namespace netfail::io
