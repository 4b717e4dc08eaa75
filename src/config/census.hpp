// The link census: the common naming layer joining syslog and IS-IS.
//
// Syslog names links by (hostname, interface); IS-IS LSPs name them by
// (system-id, system-id) or by /31 subnet. The census — mined from the
// config archive — maps all three to one canonical link record, exactly the
// "(host1:port1, host2:port2)" convention of the paper (sect. 3.4).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.hpp"
#include "src/common/sym.hpp"
#include "src/common/time.hpp"
#include "src/topology/ipv4.hpp"
#include "src/topology/osi.hpp"
#include "src/topology/topology.hpp"

namespace netfail {

struct CensusEndpoint {
  Symbol host;
  Symbol iface;
  Ipv4Address address;
};

struct CensusLink {
  LinkId id;  // dense index within this census
  std::string name;  // canonical "hostA:ifA|hostB:ifB"
  CensusEndpoint a;  // endpoint that sorts first
  CensusEndpoint b;
  Ipv4Prefix subnet;  // the /31
  TimeRange lifetime;  // when the link existed, per the archive
  RouterClass cls = RouterClass::kCore;
  /// True when more than one physical link joins the same router pair;
  /// IS reachability cannot tell the members apart (paper sect. 3.4).
  bool multilink = false;
};

class LinkCensus {
 public:
  /// Add a link; endpoints may be given in either order.
  LinkId add_link(CensusEndpoint e1, CensusEndpoint e2, Ipv4Prefix subnet,
                  TimeRange lifetime, RouterClass cls);

  void set_hostname(const OsiSystemId& system_id, Symbol hostname);

  /// Recompute the multilink flags; call once after all links are added.
  void finalize();

  // -- lookups ---------------------------------------------------------------
  const CensusLink& link(LinkId id) const;
  std::size_t size() const { return links_.size(); }
  const std::vector<CensusLink>& links() const { return links_; }

  std::optional<LinkId> find_by_name(std::string_view name) const;
  std::optional<LinkId> find_by_subnet(const Ipv4Prefix& subnet) const;
  std::optional<LinkId> find_by_interface(Symbol host, Symbol iface) const;
  /// All links between two hosts (order-insensitive); >1 means multi-link.
  /// Returns a reference into the census (empty vector for unknown pairs);
  /// valid until the next add_link.
  const std::vector<LinkId>& find_between_hosts(Symbol host1,
                                                Symbol host2) const;
  /// `find_between_hosts` for a pair of valid hosts already in
  /// `sym::ordered` form, keyed by `sym::ordered_pair_key`: skips the
  /// string compare that orders the pair.
  const std::vector<LinkId>& find_between_ordered(std::uint64_t key) const;
  /// Hostname symbol for a system id; the invalid symbol when unknown.
  Symbol hostname_of(const OsiSystemId& system_id) const;

  std::size_t count(RouterClass cls) const;
  std::size_t multilink_member_count() const;

 private:
  /// Directional (host, iface) packed into one 64-bit key.
  static std::uint64_t iface_key(Symbol host, Symbol iface) {
    return (static_cast<std::uint64_t>(host.value()) << 32) | iface.value();
  }

  std::vector<CensusLink> links_;
  // Ordered + transparent: name lookups are cold (queries, test setup), and
  // std::less<> takes string_views without materializing a key — the
  // hot-path-string-map lint rule bans the hashed alternative here.
  std::map<std::string, LinkId, std::less<>> by_name_;
  std::unordered_map<Ipv4Prefix, LinkId> by_subnet_;
  std::unordered_map<std::uint64_t, LinkId> by_interface_;  // iface_key
  // sym::pair_key(hostA, hostB) -> links, lexicographically normalized.
  std::unordered_map<std::uint64_t, std::vector<LinkId>> by_host_pair_;
  std::unordered_map<OsiSystemId, Symbol> hostname_of_;
};

/// Build the census straight from a topology (bypassing the config-mining
/// text round-trip); used by tests as ground truth to validate the miner.
LinkCensus census_from_topology(const Topology& topo, TimeRange lifetime);

}  // namespace netfail
