// A configuration archive: periodic snapshots of every router's config.
//
// CENIC archives router configs continuously; the paper mined 11,623 files.
// We reproduce the pipeline by snapshotting each (synthetic) router on a
// weekly-ish cadence with per-router jitter across the study period.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/time.hpp"
#include "src/topology/topology.hpp"

namespace netfail {

struct ConfigFile {
  std::string router_hostname;
  TimePoint captured_at;
  std::string text;
};

class ConfigArchive {
 public:
  void add(ConfigFile file) { files_.push_back(std::move(file)); }
  const std::vector<ConfigFile>& files() const { return files_; }
  std::size_t size() const { return files_.size(); }

 private:
  std::vector<ConfigFile> files_;
};

struct ArchiveParams {
  /// Mean interval between successive snapshots of one router.
  Duration mean_revision_interval = Duration::days(8);
  std::uint64_t seed = 0x5ca1ab1e;

  bool operator==(const ArchiveParams&) const = default;
};

/// Snapshot every router of `topo` across `period`.
ConfigArchive generate_archive(const Topology& topo, TimeRange period,
                               const ArchiveParams& params = {});

}  // namespace netfail
