#include "src/io/syslog_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

namespace netfail::io {
namespace {

/// A file's bytes, read into memory once. Not zero-filled first: a fresh
/// buffer is paid for in page faults, and the reads fill every byte.
struct Text {
  std::unique_ptr<char[]> bytes;
  std::size_t size = 0;

  explicit Text(std::size_t n)
      : bytes(std::make_unique_for_overwrite<char[]>(n)), size(n) {}
  std::string_view view() const { return {bytes.get(), size}; }
};

/// What is left of `in`: one sized read when the stream can seek, else
/// read to the end in blocks.
Text read_rest(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    Text text(end > start ? static_cast<std::size_t>(end - start) : 0);
    in.read(text.bytes.get(), static_cast<std::streamsize>(text.size));
    text.size = static_cast<std::size_t>(in.gcount());
    return text;
  }
  in.clear();
  std::string rest;
  char block[1 << 16];
  while (in.read(block, sizeof(block)) || in.gcount() > 0) {
    rest.append(block, static_cast<std::size_t>(in.gcount()));
  }
  Text text(rest.size());
  std::memcpy(text.bytes.get(), rest.data(), rest.size());
  return text;
}

/// Fill `text` with the first `text.size` bytes of the open file `fd`, in
/// `kSyslogReadLanes` equal slices read concurrently: the page faults of a
/// fresh buffer, not the copy, dominate a serial read. False if any slice
/// comes back short.
bool read_slices(int fd, Text& text) {
  auto read_slice = [fd, &text](std::size_t i) {
    std::size_t at = text.size * i / kSyslogReadLanes;
    const std::size_t end = text.size * (i + 1) / kSyslogReadLanes;
    while (at < end) {
      const ssize_t n = ::pread(fd, text.bytes.get() + at, end - at,
                                static_cast<off_t>(at));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      at += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::array<std::future<bool>, kSyslogReadLanes> tasks;
  for (std::size_t i = 1; i < kSyslogReadLanes; ++i) {
    tasks[i] = std::async(std::launch::async, read_slice, i);
  }
  bool ok = read_slice(0);
  for (std::size_t i = 1; i < kSyslogReadLanes; ++i) ok = tasks[i].get() && ok;
  return ok;
}

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

LaneLines parse_range(std::string_view range) {
  LaneLines out;
  // Size the store up front: growing a vector of parsed lines by doubling
  // strands the outgrown buffers in the heap. Blank lines are not stored,
  // so they do not count.
  std::size_t kept = 0;
  for_each_line(range, [&](std::string_view line) { kept += !line.empty(); });
  out.lines.reserve(kept);
  for_each_line(range, [&](std::string_view line) {
    if (line.empty()) {
      ++out.blank;
    } else {
      out.lines.emplace_back(TimePoint{}, std::string(line));
    }
  });
  return out;
}

/// `text` cut into `kSyslogReadLanes` ranges of about equal size, each
/// starting on a line (so a range may be empty): range i is
/// [cuts[i], cuts[i + 1]).
std::array<std::size_t, kSyslogReadLanes + 1> line_cuts(std::string_view text) {
  std::array<std::size_t, kSyslogReadLanes + 1> cuts{};
  cuts[kSyslogReadLanes] = text.size();
  for (std::size_t i = 1; i < kSyslogReadLanes; ++i) {
    std::size_t p = std::max(text.size() * i / kSyslogReadLanes, cuts[i - 1]);
    if (p > 0 && p < text.size() && text[p - 1] != '\n') {
      p = std::min(text.find('\n', p), text.size() - 1) + 1;
    }
    cuts[i] = p;
  }
  return cuts;
}

/// Both overloads: parse `text` on lanes, free it, stamp in file order.
syslog::Collector collect(Text text, TimePoint capture_start,
                          SyslogReadStats& st) {
  // Parse: range 0 on this thread, the others on tasks. The ranges' lines
  // live as long as the collector, so which heap they come from does not
  // matter.
  std::array<LaneLines, kSyslogReadLanes> lanes;
  {
    const std::string_view all = text.view();
    const auto cuts = line_cuts(all);
    auto range = [&](std::size_t i) {
      return all.substr(cuts[i], cuts[i + 1] - cuts[i]);
    };
    std::array<std::future<LaneLines>, kSyslogReadLanes> tasks;
    for (std::size_t i = 1; i < kSyslogReadLanes; ++i) {
      if (cuts[i] == cuts[i + 1]) continue;
      tasks[i] = std::async(std::launch::async,
                            [view = range(i)] { return parse_range(view); });
    }
    lanes[0] = parse_range(range(0));
    for (std::size_t i = 1; i < kSyslogReadLanes; ++i) {
      if (tasks[i].valid()) lanes[i] = tasks[i].get();
    }
  }
  text.bytes.reset();  // the file's bytes are freed before the store grows

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
  return collect(read_rest(in), capture_start, stats ? *stats : local);
}

Result<syslog::Collector> read_syslog_file(const std::string& path,
                                           TimePoint capture_start,
                                           SyslogReadStats* stats) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return make_error(ErrorCode::kNotFound, "cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    // Not a regular file (a pipe, say): no size to split by, so stream it.
    ::close(fd);
    std::ifstream in(path, std::ios::binary);
    if (!in) return make_error(ErrorCode::kNotFound, "cannot open " + path);
    return read_syslog_file(in, capture_start, stats);
  }
  Text text(static_cast<std::size_t>(st.st_size));
  const bool whole = read_slices(fd, text);
  ::close(fd);
  if (!whole) {
    return make_error(ErrorCode::kInternal, "short read of " + path);
  }
  SyslogReadStats local;
  return collect(std::move(text), capture_start, stats ? *stats : local);
}

}  // namespace netfail::io
