#include "src/io/config_dir.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/strfmt.hpp"

namespace netfail::io {

namespace fs = std::filesystem;

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
      std::ifstream in(entry.path(), std::ios::binary);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      files.push_back(ConfigFile{
          hostname,
          TimePoint::from_unix_seconds(static_cast<std::int64_t>(ts)),
          std::move(text)});
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
