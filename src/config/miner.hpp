// Config mining: parse an archive of router configurations back into the
// link census (paper sect. 3.4, "we determine all of the links in the
// network by mining an archive of configuration files").
//
// The miner understands both classic-IOS ("ip address A M") and IOS-XR
// ("ipv4 address A M") interface stanzas plus the IS-IS "net" statement,
// pairs interfaces that share a /31, and derives per-link lifetimes from
// first/last appearance in the archive.
//
// Mining is two steps: parse_config reads one file on its own, and
// CensusFold folds the parses into the census in archive order. The fold is
// the only step whose result depends on the order of the files (the
// endpoints of a /31 in first-seen order, the last system id seen per
// hostname), so parsing may run anywhere: mine_archive parses and folds an
// in-memory archive file by file, and io::read_bundle parses configs/ on
// the load's threads (io::ConfigQueue) and folds the parses on the caller
// in the (host, capture time) order read_config_dir returns.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.hpp"
#include "src/config/archive.hpp"
#include "src/config/census.hpp"
#include "src/topology/topology.hpp"

namespace netfail {

/// Everything extracted from one configuration file.
struct MinedConfig {
  std::string hostname;
  OsiSystemId system_id;
  bool has_system_id = false;
  struct MinedInterface {
    std::string name;
    Ipv4Address address;
    int prefix_length = 0;
  };
  std::vector<MinedInterface> interfaces;  // /31 link interfaces only
};

/// Parse one config file; tolerates unknown lines, fails only on files that
/// lack a hostname.
Result<MinedConfig> parse_config(std::string_view text);

struct MiningStats {
  std::size_t files_parsed = 0;
  std::size_t files_failed = 0;
  std::size_t endpoints = 0;
  /// /31 subnets with only one endpoint in the whole archive — these cannot
  /// be turned into links and are dropped (logged, per "no silent caps").
  std::size_t unpaired_subnets = 0;
};

struct MinerParams {
  /// Lifetime windows are padded by this much on each side (a link existed
  /// before its first and after its last snapshot), then clamped to `period`.
  Duration lifetime_slack = Duration::days(10);
  /// Classifier: hosts whose name contains this token are CPE routers.
  std::string cpe_host_token = std::string(kCpeHostToken);

  bool operator==(const MinerParams&) const = default;
};

/// The order-dependent half of mining: /31 pairing, lifetimes and system
/// ids over parsed configs, fed one file at a time in archive order.
class CensusFold {
 public:
  explicit CensusFold(TimeRange period, const MinerParams& params = {})
      : period_(period), params_(params) {}

  /// Fold one file's parse, captured at `captured_at`. A failed parse only
  /// counts in the stats.
  void add(TimePoint captured_at, const Result<MinedConfig>& mined);

  /// Pair the subnets into a census and finalize it; call once, last.
  LinkCensus finish(MiningStats* stats = nullptr);

 private:
  struct Endpoint {
    std::string host;
    std::string iface;
    Ipv4Address address;
    TimePoint first_seen;
    TimePoint last_seen;
  };

  TimeRange period_;
  MinerParams params_;
  MiningStats stats_;
  // std::map keeps the census ordering deterministic regardless of the
  // order the files come in.
  std::map<Ipv4Prefix, std::vector<Endpoint>> by_subnet_;
  std::map<std::string, OsiSystemId> system_ids_;  // hostname -> system id
};

/// Mine the whole archive into a census: parse_config on every file, folded
/// in archive order.
LinkCensus mine_archive(const ConfigArchive& archive, TimeRange period,
                        const MinerParams& params = {},
                        MiningStats* stats = nullptr);

}  // namespace netfail
