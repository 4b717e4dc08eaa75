// Configuration archives on disk.
//
// Layout mirrors common practice (one directory per device, one file per
// revision, named by capture time):
//
//   <root>/<hostname>/<unix_seconds>.cfg
//
// write_config_dir() lays a ConfigArchive out this way; read_config_dir()
// walks the tree back into an archive the miner can consume — the entry
// point for running the census step over a real RANCID-style archive.
#pragma once

#include <string>

#include "src/common/result.hpp"
#include "src/config/archive.hpp"

namespace netfail::io {

Status write_config_dir(const ConfigArchive& archive, const std::string& root);

struct ConfigDirStats {
  std::size_t files = 0;
  // Non-.cfg files, and stems that are not a seconds count inside
  // kInputTimeRange.
  std::size_t skipped = 0;
};

/// Read every `<host>/<ts>.cfg` under `root`. Hostname comes from the
/// directory name; capture time from the file stem (Unix seconds).
Result<ConfigArchive> read_config_dir(const std::string& root,
                                      ConfigDirStats* stats = nullptr);

}  // namespace netfail::io
