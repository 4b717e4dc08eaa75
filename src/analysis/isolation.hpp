// Customer isolation analysis (paper sect. 4.4, Table 7).
//
// CENIC's customers are multi-homed and the backbone has rings, so deciding
// "was site X cut off?" needs simultaneous state for many links. We rebuild
// the graph from the config-mined census (as the paper did: "we use the
// network topology reconstructed from router configuration files"), treat
// parallel links between a router pair as one logical adjacency (up while
// any member is up), and sweep link-state changes to find the maximal
// periods during which a customer has no path to any backbone router.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/failure.hpp"
#include "src/common/interval_set.hpp"
#include "src/common/sym.hpp"
#include "src/config/census.hpp"
#include "src/isis/extract.hpp"

namespace netfail::analysis {

/// Downtime per logical adjacency, keyed by the packed unordered host-pair
/// key (sym::pair_key: equal pairs in either order map to equal keys).
using PairDowntime = std::unordered_map<std::uint64_t, IntervalSet>;

std::uint64_t host_pair_key(Symbol a, Symbol b);

/// Logical adjacency downtime from per-member-link failures: the adjacency
/// is down only while *all* member links are down (syslog sees members
/// individually).
PairDowntime pair_downtime_from_failures(const LinkCensus& census,
                                         const std::vector<Failure>& failures);

/// Logical adjacency downtime from the IS-IS view: single-link pairs from
/// reconstructed failures; multi-link pairs directly from the bidirectional
/// adjacency count crossing zero (IsisTransition::pair_count_after).
PairDowntime pair_downtime_from_isis(
    const LinkCensus& census, const std::vector<Failure>& failures,
    const std::vector<isis::IsisTransition>& is_reach, TimeRange period);

struct IsolationEvent {
  std::string customer;
  TimeRange span;
};

struct IsolationResult {
  std::vector<IsolationEvent> events;
  std::size_t sites_impacted = 0;
  Duration total_isolation;
  /// Per-customer isolation interval sets (for intersections).
  std::map<std::string, IntervalSet> by_customer;
};

/// A host whose name contains kCpeHostToken is a CPE router of the customer
/// named by the prefix before the token; every other host is backbone.
IsolationResult compute_isolation(const LinkCensus& census,
                                  const PairDowntime& pair_downtime,
                                  TimeRange period);

/// Per-customer intersection of two isolation results (Table 7 last row).
IsolationResult intersect_isolation(const IsolationResult& a,
                                    const IsolationResult& b);

/// Events in `a` with no overlapping event in `b` for the same customer.
std::size_t unmatched_events(const IsolationResult& a, const IsolationResult& b);

}  // namespace netfail::analysis
