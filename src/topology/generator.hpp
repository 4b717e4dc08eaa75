// Deterministic generator for CENIC-like topologies.
//
// The real CENIC graph is proprietary; this generator produces a synthetic
// network matching the published census (Table 1 of the paper): 60 Core and
// 175 CPE routers, 84 Core and 215 CPE physical links, a ring backbone with
// redundant hubs, multi-homed customer sites, and 26 multi-link adjacency
// pairs. All structural knobs are parameters so tests can build small
// instances.
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/topology/topology.hpp"

namespace netfail {

struct TopologyParams {
  // Router census (paper Table 1).
  int core_routers = 60;
  int cpe_routers = 175;
  int customers = 120;  // CENIC serves ~120 institutions

  // Link census (paper Table 1: 84 Core + 215 CPE IS-IS links).
  int core_links = 84;
  int cpe_links = 215;

  // Multi-link adjacencies (paper sect. 3.4: 26 device pairs; members are
  // ~20% of all physical links).
  int multilink_pairs_core = 16;
  int multilink_pairs_cpe = 10;

  std::uint64_t seed = 0x13121973;

  /// Shrink everything by an integer factor (for unit tests).
  TopologyParams scaled_down(int factor) const;

  bool operator==(const TopologyParams&) const = default;
};

/// Build a topology; aborts if the parameters are infeasible (e.g. fewer
/// core links than needed for a connected ring).
Topology generate_topology(const TopologyParams& params);

/// Convenience: the default CENIC-scale topology used by all benchmarks.
inline Topology generate_cenic_topology() {
  return generate_topology(TopologyParams{});
}

}  // namespace netfail
