#include "src/io/bundle.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/strfmt.hpp"
#include "src/io/config_dir.hpp"
#include "src/io/interval_file.hpp"
#include "src/io/lsp_capture.hpp"
#include "src/io/syslog_file.hpp"
#include "src/io/ticket_file.hpp"

namespace netfail::io {
namespace {

namespace fs = std::filesystem;

constexpr const char* kMeta = "META";
constexpr const char* kSyslog = "messages.log";
constexpr const char* kLsps = "listener.nfc";
constexpr const char* kConfigs = "configs";
constexpr const char* kTickets = "tickets.tsv";
constexpr const char* kGaps = "listener_gaps.tsv";

constexpr const char* kBeginKey = "period_begin_ms";
constexpr const char* kEndKey = "period_end_ms";

Result<TimeRange> read_meta(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return make_error(ErrorCode::kNotFound, "no META file in bundle");
  std::optional<std::int64_t> begin_ms, end_ms;
  char line[256];  // META is two short lines; anything longer is not META
  for (std::size_t lineno = 1; in.getline(line, sizeof(line)); ++lineno) {
    // gcount() counts the newline, when there was one; NULs stay in.
    const std::vector<std::string> fields = split_whitespace(
        std::string_view(line, static_cast<std::size_t>(in.gcount()) -
                                   (in.eof() ? 0 : 1)));
    if (fields.empty()) continue;
    std::int64_t ms = 0;
    const std::string& v = fields.back();
    const auto [end, err] = std::from_chars(v.data(), v.data() + v.size(), ms);
    if (fields.size() != 2 || err != std::errc{} ||
        end != v.data() + v.size()) {
      return make_error(ErrorCode::kParseError,
                        strformat("META line %zu is not '<key> <ms>'", lineno));
    }
    if (fields[0] == kBeginKey) begin_ms = ms;
    if (fields[0] == kEndKey) end_ms = ms;
  }
  if (!in.eof()) {
    return make_error(ErrorCode::kParseError, "META has an overlong line");
  }
  if (!begin_ms || !end_ms || *end_ms <= *begin_ms) {
    return make_error(ErrorCode::kParseError,
                      strformat("META needs %s < %s", kBeginKey, kEndKey));
  }
  return TimeRange{TimePoint::from_unix_millis(*begin_ms),
                   TimePoint::from_unix_millis(*end_ms)};
}

Status write_meta(const fs::path& path, TimeRange period) {
  std::ofstream meta(path);
  meta << kBeginKey << '\t' << period.begin.unix_millis() << '\n'
       << kEndKey << '\t' << period.end.unix_millis() << '\n';
  meta.close();  // flushes: a full disk fails here
  return meta ? Status::ok_status()
              : Status(make_error(ErrorCode::kInternal,
                                  "cannot write " + path.string()));
}

/// An optional file: absent leaves `out` empty; unreadable is an error.
template <typename T>
Status read_optional(Result<T> read, const char* name, T& out) {
  if (read) {
    out = std::move(*read);
  } else if (read.error().code != ErrorCode::kNotFound) {
    return make_error(read.error().code,
                      std::string(name) + ": " + read.error().message);
  }
  return Status::ok_status();
}

}  // namespace

Result<Bundle> read_bundle(const std::string& dir) {
  const fs::path root(dir);
  Bundle out;
  const Result<TimeRange> period = read_meta(root / kMeta);
  if (!period) return period.error();
  out.period = *period;

  // configs/ is a queue of host directories that the load's three threads
  // drain: the caller first, each task once its own file has loaded. It is
  // declared before the tasks, so it outlives them on every path.
  ConfigQueue configs((root / kConfigs).string());
  if (!configs.status()) return configs.status().error();

  // The two event files load on worker threads; the result they return
  // outlives this call, so where it is allocated does not matter.
  std::future<Result<syslog::Collector>> collector = std::async(
      std::launch::async, [&configs, path = (root / kSyslog).string(),
                           start = out.period.begin] {
        Result<syslog::Collector> read = read_syslog_file(path, start);
        configs.drain();
        return read;
      });
  std::future<Result<std::vector<isis::LspRecord>>> records = std::async(
      std::launch::async, [&configs, path = (root / kLsps).string()] {
        Result<std::vector<isis::LspRecord>> read = read_lsp_capture(path);
        configs.drain();
        return read;
      });

  configs.drain();
  const Status tickets = read_optional(
      read_ticket_file((root / kTickets).string()), kTickets, out.tickets);
  const Status gaps = read_optional(read_interval_file((root / kGaps).string()),
                                    kGaps, out.listener_gaps);

  // The fold runs on the caller, in host order: at once when every host is
  // mined already (the event files take longer, as on a busy capture),
  // else after the join. Both tasks are joined before anything is
  // reported, and the first failure is reported in file order, whichever
  // thread finished first.
  ConfigDirStats stats;
  std::optional<Result<LinkCensus>> census;
  if (configs.mined()) census.emplace(configs.fold(out.period, &stats));
  Result<syslog::Collector> lines = collector.get();
  Result<std::vector<isis::LspRecord>> lsps = records.get();
  if (!census) census.emplace(configs.fold(out.period, &stats));
  if (!*census) return census->error();
  out.census = std::move(**census);
  out.config_files = stats.files;
  if (!lines) return lines.error();
  out.collector = std::move(*lines);
  if (!lsps) return lsps.error();
  out.lsp_records = std::move(*lsps);
  if (!tickets) return tickets.error();
  if (!gaps) return gaps.error();
  return out;
}

Status write_bundle(const std::string& dir, TimeRange period,
                    const syslog::Collector& collector,
                    const std::vector<isis::LspRecord>& lsp_records,
                    const ConfigArchive& configs, const TicketStore& tickets,
                    const IntervalSet& listener_gaps) {
  const fs::path root(dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal,
                      "cannot create " + dir + ": " + ec.message());
  }
  Status s = write_syslog_file(collector, (root / kSyslog).string());
  if (s) s = write_lsp_capture(lsp_records, (root / kLsps).string());
  if (s) s = write_config_dir(configs, (root / kConfigs).string());
  if (s) s = write_ticket_file(tickets, (root / kTickets).string());
  if (s) s = write_interval_file(listener_gaps, (root / kGaps).string());
  if (s) s = write_meta(root / kMeta, period);
  return s;
}

}  // namespace netfail::io
