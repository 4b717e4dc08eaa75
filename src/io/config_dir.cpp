#include "src/io/config_dir.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>

#include "src/common/strfmt.hpp"

namespace netfail::io {

namespace fs = std::filesystem;

namespace {

/// A config file's bytes, read in one call sized by fstat; empty when the
/// file cannot be opened. A file that changes size under the read keeps
/// what was read up to its fstat size.
std::string read_file(const fs::path& path) {
  std::string text;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return text;
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
  return text;
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
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return make_error(ErrorCode::kNotFound, root + " is not a directory");
  }

  ConfigArchive archive;
  std::vector<ConfigFile> files;
  for (const fs::directory_entry& host_dir : fs::directory_iterator(root)) {
    if (!host_dir.is_directory()) {
      ++st.skipped;
      continue;
    }
    const std::string hostname = host_dir.path().filename().string();
    for (const fs::directory_entry& entry :
         fs::directory_iterator(host_dir.path())) {
      if (!entry.is_regular_file() || entry.path().extension() != ".cfg") {
        ++st.skipped;
        continue;
      }
      // The stem is the capture time in seconds since the epoch, bounded
      // like every other time read from outside bytes.
      std::uint64_t ts = 0;
      if (!parse_uint(entry.path().stem().string(), ts) ||
          ts >= static_cast<std::uint64_t>(kInputTimeRange.end.unix_millis() /
                                           1000)) {
        ++st.skipped;
        continue;
      }
      files.push_back(ConfigFile{
          hostname,
          TimePoint::from_unix_seconds(static_cast<std::int64_t>(ts)),
          read_file(entry.path())});
      ++st.files;
    }
  }
  // Directory iteration order is unspecified; make the archive
  // deterministic.
  std::sort(files.begin(), files.end(),
            [](const ConfigFile& a, const ConfigFile& b) {
              if (a.router_hostname != b.router_hostname) {
                return a.router_hostname < b.router_hostname;
              }
              return a.captured_at < b.captured_at;
            });
  for (ConfigFile& f : files) archive.add(std::move(f));
  return archive;
}

}  // namespace netfail::io
