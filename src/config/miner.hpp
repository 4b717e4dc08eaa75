// Config mining: parse an archive of router configurations back into the
// link census (paper sect. 3.4, "we determine all of the links in the
// network by mining an archive of configuration files").
//
// The miner understands both classic-IOS ("ip address A M") and IOS-XR
// ("ipv4 address A M") interface stanzas plus the IS-IS "net" statement,
// pairs interfaces that share a /31, and derives per-link lifetimes from
// first/last appearance in the archive.
#pragma once

#include <cstddef>
#include <string_view>

#include "src/common/result.hpp"
#include "src/config/archive.hpp"
#include "src/config/census.hpp"

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
  std::string cpe_host_token = "-gw-";

  bool operator==(const MinerParams&) const = default;
};

/// Mine the whole archive into a census.
LinkCensus mine_archive(const ConfigArchive& archive, TimeRange period,
                        const MinerParams& params = {},
                        MiningStats* stats = nullptr);

}  // namespace netfail
