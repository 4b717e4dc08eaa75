#include "src/io/config_dir.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/common/strfmt.hpp"

namespace netfail::io {

namespace fs = std::filesystem;

namespace {

/// Reads a config file into `text` with one read sized by fstat; `text` is
/// left empty when the file cannot be opened. A file that changes size
/// under the read keeps what was read up to its fstat size.
void read_file(const fs::path& path, std::string& text) {
  text.clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    text.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < text.size()) {
      const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    text.resize(got);
  }
  ::close(fd);
}

Error cannot_list(const fs::path& dir, const std::error_code& ec) {
  return make_error(ErrorCode::kInternal,
                    "cannot list " + dir.string() + ": " + ec.message());
}

/// The host directories under `root`, sorted by name. An entry that is not
/// a directory, or whose type cannot be read, is skipped and counted.
Result<std::vector<std::string>> list_hosts(const std::string& root,
                                            std::size_t& skipped) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return make_error(ErrorCode::kNotFound, root + " is not a directory");
  }
  std::vector<std::string> hosts;
  for (fs::directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;
    if (!it->is_directory(type_ec)) {
      ++skipped;
      continue;
    }
    hosts.push_back(it->path().filename().string());
  }
  if (ec) return cannot_list(root, ec);
  // Directory iteration order is unspecified; make the archive
  // deterministic.
  std::sort(hosts.begin(), hosts.end());
  return hosts;
}

struct ConfigEntry {
  TimePoint captured_at;
  fs::path path;
};

/// The config files of one host directory, sorted by capture time (then
/// path, so equal times keep one order). Entries that are not regular .cfg
/// files, or whose type cannot be read, and stems that are not a capture
/// time are skipped and counted.
Status list_configs(const fs::path& dir, std::vector<ConfigEntry>& files,
                    std::size_t& skipped) {
  files.clear();
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code type_ec;
    if (!it->is_regular_file(type_ec) || it->path().extension() != ".cfg") {
      ++skipped;
      continue;
    }
    // The stem is the capture time in seconds since the epoch, bounded
    // like every other time read from outside bytes.
    std::uint64_t ts = 0;
    if (!parse_uint(it->path().stem().string(), ts) ||
        ts >= static_cast<std::uint64_t>(kInputTimeRange.end.unix_millis() /
                                         1000)) {
      ++skipped;
      continue;
    }
    files.push_back(ConfigEntry{
        TimePoint::from_unix_seconds(static_cast<std::int64_t>(ts)),
        it->path()});
  }
  if (ec) return cannot_list(dir, ec);
  std::sort(files.begin(), files.end(),
            [](const ConfigEntry& a, const ConfigEntry& b) {
              if (a.captured_at != b.captured_at) {
                return a.captured_at < b.captured_at;
              }
              return a.path < b.path;
            });
  return Status::ok_status();
}

}  // namespace

Status write_config_dir(const ConfigArchive& archive, const std::string& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return make_error(ErrorCode::kInternal,
                      "cannot create " + root + ": " + ec.message());
  }
  for (const ConfigFile& file : archive.files()) {
    const fs::path dir = fs::path(root) / file.router_hostname;
    fs::create_directories(dir, ec);
    if (ec) {
      return make_error(ErrorCode::kInternal,
                        "cannot create " + dir.string() + ": " + ec.message());
    }
    const fs::path path =
        dir / strformat("%lld.cfg",
                        static_cast<long long>(file.captured_at.unix_seconds()));
    std::ofstream out(path);
    if (!out) {
      return make_error(ErrorCode::kInternal, "cannot write " + path.string());
    }
    out << file.text;
  }
  return Status::ok_status();
}

Result<ConfigArchive> read_config_dir(const std::string& root,
                                      ConfigDirStats* stats) {
  ConfigDirStats local;
  ConfigDirStats& st = stats ? *stats : local;
  const Result<std::vector<std::string>> hosts = list_hosts(root, st.skipped);
  if (!hosts) return hosts.error();

  ConfigArchive archive;
  std::vector<ConfigEntry> entries;
  for (const std::string& host : *hosts) {
    const Status listed =
        list_configs(fs::path(root) / host, entries, st.skipped);
    if (!listed) return listed.error();
    for (const ConfigEntry& entry : entries) {
      std::string text;
      read_file(entry.path, text);
      archive.add(ConfigFile{host, entry.captured_at, std::move(text)});
      ++st.files;
    }
  }
  return archive;
}

ConfigQueue::ConfigQueue(const std::string& root) : root_(root) {
  Result<std::vector<std::string>> hosts = list_hosts(root_, skipped_);
  if (!hosts) {
    status_ = hosts.error();
    return;
  }
  hosts_.resize(hosts->size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].name = std::move((*hosts)[i]);
  }
}

void ConfigQueue::drain() {
  std::vector<ConfigEntry> entries;
  std::string text;  // one read buffer per draining thread, reused
  for (std::size_t i = next_++; i < hosts_.size(); i = next_++) {
    Host& host = hosts_[i];
    host.status =
        list_configs(fs::path(root_) / host.name, entries, host.skipped);
    if (host.status) {
      host.files.reserve(entries.size());
      for (const ConfigEntry& entry : entries) {
        read_file(entry.path, text);
        host.files.push_back(
            ParsedFile{entry.captured_at, parse_config(text)});
      }
    }
    ++mined_;
  }
}

Result<LinkCensus> ConfigQueue::fold(TimeRange period, ConfigDirStats* stats) {
  if (!status_) return status_.error();
  ConfigDirStats st;
  st.skipped = skipped_;
  CensusFold census(period);
  for (Host& host : hosts_) {
    if (!host.status) return host.status.error();
    st.files += host.files.size();
    st.skipped += host.skipped;
    for (const ParsedFile& file : host.files) {
      census.add(file.captured_at, file.mined);
    }
    std::vector<ParsedFile>().swap(host.files);
  }
  if (stats) *stats = st;
  return census.finish();
}

}  // namespace netfail::io
