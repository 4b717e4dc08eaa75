#include "src/io/config_dir.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string_view>
#include <system_error>

#include "src/common/strfmt.hpp"

namespace netfail::io {

namespace fs = std::filesystem;

namespace {

/// A directory open for listing, closed when it goes out of scope.
struct DirCloser {
  void operator()(DIR* dir) const { ::closedir(dir); }
};
using Dir = std::unique_ptr<DIR, DirCloser>;

std::string join(const std::string& dir, const std::string& name) {
  return !dir.empty() && dir.back() == '/' ? dir + name : dir + "/" + name;
}

Error cannot_list(const std::string& dir, int err) {
  return make_error(ErrorCode::kInternal,
                    "cannot list " + dir + ": " +
                        std::system_category().message(err));
}

/// The file type (S_IFDIR, S_IFREG, ...) of entry `e` of the open directory
/// `dir`, following a symlink as stat(2) does: readdir's d_type where it is
/// known, else fstatat. 0 when the type cannot be read (a dangling link, a
/// symlink loop).
mode_t entry_type(DIR* dir, const dirent& e) {
  switch (e.d_type) {
    case DT_DIR:
      return S_IFDIR;
    case DT_REG:
      return S_IFREG;
    case DT_LNK:
    case DT_UNKNOWN:
      break;
    default:
      return S_IFIFO;  // a device, pipe or socket: neither a host nor a file
  }
  struct stat st {};
  if (::fstatat(::dirfd(dir), e.d_name, &st, 0) != 0) return 0;
  return st.st_mode & S_IFMT;
}

/// Calls `fn(entry)` for every entry of `dir` but "." and "..". False, with
/// errno set, when the listing fails part way.
template <typename Fn>
bool for_each_entry(DIR* dir, Fn&& fn) {
  for (;;) {
    errno = 0;
    const dirent* e = ::readdir(dir);
    if (e == nullptr) return errno == 0;
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0) {
      continue;
    }
    fn(*e);
  }
}

/// Reads the config file `name` of the open directory `dir` into `text`
/// with one read sized by fstat; `text` is left empty when the file cannot
/// be opened. A file that changes size under the read keeps what was read
/// up to its fstat size.
void read_file(DIR* dir, const std::string& name, std::string& text) {
  text.clear();
  const int fd = ::openat(::dirfd(dir), name.c_str(), O_RDONLY | O_CLOEXEC);
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

/// The host directories under `root`, sorted by name. An entry that is not
/// a directory, or whose type cannot be read, is skipped and counted.
Result<std::vector<std::string>> list_hosts(const std::string& root,
                                            std::size_t& skipped) {
  struct stat st {};
  if (::stat(root.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return make_error(ErrorCode::kNotFound, root + " is not a directory");
  }
  const Dir dir(::opendir(root.c_str()));
  if (!dir) return cannot_list(root, errno);
  std::vector<std::string> hosts;
  const bool listed = for_each_entry(dir.get(), [&](const dirent& e) {
    if (entry_type(dir.get(), e) != S_IFDIR) {
      ++skipped;
      return;
    }
    hosts.emplace_back(e.d_name);
  });
  if (!listed) return cannot_list(root, errno);
  // Directory order is unspecified; make the archive deterministic.
  std::sort(hosts.begin(), hosts.end());
  return hosts;
}

struct ConfigEntry {
  TimePoint captured_at;
  std::string name;  // within the host directory
};

/// The config files of the host directory `path`, sorted by capture time
/// (then name, so equal times keep one order), and the directory, open for
/// reading them. Entries that are not regular .cfg files, or whose type
/// cannot be read, and stems that are not a capture time are skipped and
/// counted.
Result<Dir> list_configs(const std::string& path,
                         std::vector<ConfigEntry>& files,
                         std::size_t& skipped) {
  files.clear();
  Dir dir(::opendir(path.c_str()));
  if (!dir) return cannot_list(path, errno);
  constexpr std::string_view kExtension = ".cfg";
  const bool listed = for_each_entry(dir.get(), [&](const dirent& e) {
    const std::string_view name(e.d_name);
    // The stem is the capture time in seconds since the epoch, bounded
    // like every other time read from outside bytes.
    std::uint64_t ts = 0;
    if (!name.ends_with(kExtension) ||
        !parse_uint(name.substr(0, name.size() - kExtension.size()), ts) ||
        ts >= static_cast<std::uint64_t>(kInputTimeRange.end.unix_millis() /
                                         1000) ||
        entry_type(dir.get(), e) != S_IFREG) {
      ++skipped;
      return;
    }
    files.push_back(ConfigEntry{
        TimePoint::from_unix_seconds(static_cast<std::int64_t>(ts)),
        std::string(name)});
  });
  if (!listed) return cannot_list(path, errno);
  std::sort(files.begin(), files.end(),
            [](const ConfigEntry& a, const ConfigEntry& b) {
              if (a.captured_at != b.captured_at) {
                return a.captured_at < b.captured_at;
              }
              return a.name < b.name;
            });
  return dir;
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
    const Result<Dir> dir = list_configs(join(root, host), entries, st.skipped);
    if (!dir) return dir.error();
    for (const ConfigEntry& entry : entries) {
      std::string text;
      read_file(dir->get(), entry.name, text);
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
    const Result<Dir> dir =
        list_configs(join(root_, host.name), entries, host.skipped);
    if (!dir) {
      host.status = dir.error();
    } else {
      host.files.reserve(entries.size());
      for (const ConfigEntry& entry : entries) {
        read_file(dir->get(), entry.name, text);
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
