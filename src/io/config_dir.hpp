// Configuration archives on disk.
//
// Layout mirrors common practice (one directory per device, one file per
// revision, named by capture time):
//
//   <root>/<hostname>/<unix_seconds>.cfg
//
// write_config_dir() lays a ConfigArchive out this way. Two readers walk
// the tree back through one listing, which sorts host directories by name
// and each host's files by capture time:
//   - read_config_dir() builds a ConfigArchive in that order, for
//     mine_archive (the entry point for a RANCID-style archive in memory);
//   - ConfigQueue mines the tree without building an archive. Threads take
//     host directories off it, read each host's files into one reused
//     buffer and parse them (parse_config); fold() then feeds the parses to
//     one CensusFold in the order read_config_dir() returns the files, so
//     both give the same census. io::read_bundle drains it on the load's
//     own threads.
//
// The listing skips, and counts, top-level entries that are not
// directories (an entry whose type cannot be read, such as a symlink loop,
// is one of them), entries of a host directory that are not regular .cfg
// files, and stems that are not a seconds count inside kInputTimeRange. A
// directory that cannot be listed is an error that names it; nothing here
// throws on a file-system error.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/config/archive.hpp"
#include "src/config/census.hpp"
#include "src/config/miner.hpp"

namespace netfail::io {

Status write_config_dir(const ConfigArchive& archive, const std::string& root);

struct ConfigDirStats {
  std::size_t files = 0;
  // Top-level entries that are not directories, non-.cfg files, and stems
  // that are not a seconds count inside kInputTimeRange.
  std::size_t skipped = 0;
};

/// Read every `<host>/<ts>.cfg` under `root`. Hostname comes from the
/// directory name; capture time from the file stem (Unix seconds).
Result<ConfigArchive> read_config_dir(const std::string& root,
                                      ConfigDirStats* stats = nullptr);

/// `root` as a queue of host directories that several threads mine at
/// once, each host by one thread; see the file comment.
class ConfigQueue {
 public:
  /// Lists the host directories of `root`; status() tells whether it could.
  explicit ConfigQueue(const std::string& root);
  ConfigQueue(const ConfigQueue&) = delete;
  ConfigQueue& operator=(const ConfigQueue&) = delete;

  /// Why `root` could not be listed; ok when it was.
  const Status& status() const { return status_; }

  /// Takes hosts off the queue, in name order, until none is left: lists
  /// the host's config files, reads them in capture-time order and parses
  /// each into the host's slot. Any number of threads may drain at once.
  /// A host that cannot be listed keeps its error for fold().
  void drain();

  /// Whether every host has been mined, by whichever threads took them.
  bool mined() const { return mined_ == hosts_.size(); }

  /// The census mined from every host's parses, folded in host-name order,
  /// or the error of the first host in that order that could not be
  /// listed. Call once, after every drain() has returned or once mined()
  /// is true; it frees the parses as it folds them.
  Result<LinkCensus> fold(TimeRange period, ConfigDirStats* stats = nullptr);

 private:
  struct ParsedFile {
    TimePoint captured_at;
    Result<MinedConfig> mined;
  };
  struct Host {
    std::string name;
    Status status;
    std::size_t skipped = 0;
    std::vector<ParsedFile> files;  // capture-time order
  };

  std::string root_;
  Status status_;
  std::size_t skipped_ = 0;  // top-level entries that are not hosts
  std::vector<Host> hosts_;  // name order
  std::atomic<std::size_t> next_{0};   // the next host to take
  std::atomic<std::size_t> mined_{0};  // hosts finished, by any thread
};

}  // namespace netfail::io
