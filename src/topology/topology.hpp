// The network model: routers, interfaces, physical links and customers.
//
// Mirrors the CENIC structure from the paper: Core routers on the backbone,
// CPE routers on customer premises, point-to-point links numbered from /31
// subnets, and 26 router pairs joined by *multiple* parallel links (the
// multi-link adjacencies that the IS-reachability field cannot tell apart,
// sect. 3.4).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.hpp"
#include "src/common/sym.hpp"
#include "src/common/time.hpp"
#include "src/topology/ipv4.hpp"
#include "src/topology/osi.hpp"

namespace netfail {

enum class RouterClass { kCore, kCpe };

inline const char* router_class_name(RouterClass c) {
  return c == RouterClass::kCore ? "Core" : "CPE";
}

/// The one CPE naming rule: a CPE router's hostname is its customer's name,
/// this token, then a number; no core hostname contains it.
/// The generator names CPE routers with it, the config miner classifies
/// links by it, and the isolation analysis splits off customers at it.
inline constexpr std::string_view kCpeHostToken = "-gw-";

/// Operating-system family of the router; determines which syslog dialect it
/// emits (classic IOS "%CLNS-5-ADJCHANGE" vs IOS-XR
/// "%ROUTING-ISIS-4-ADJCHANGE" — both appear in the paper's Table 1).
enum class RouterOs { kIos, kIosXr };

struct Interface {
  InterfaceId id;
  RouterId router;
  Symbol name;           // e.g. "TenGigE0/1/0/3" (interned)
  Ipv4Address address;   // one side of the link's /31
  LinkId link;
};

struct Router {
  RouterId id;
  Symbol hostname;       // e.g. "lax-core-1" (interned)
  RouterClass cls = RouterClass::kCore;
  RouterOs os = RouterOs::kIos;
  OsiSystemId system_id;
  Ipv4Address loopback;
  std::vector<InterfaceId> interfaces;
  CustomerId customer;   // valid only for CPE routers
};

/// A physical point-to-point link. Endpoint A is always the endpoint whose
/// (hostname, interface) sorts first, so link naming is canonical.
struct Link {
  LinkId id;
  RouterId router_a;
  InterfaceId if_a;
  RouterId router_b;
  InterfaceId if_b;
  RouterClass cls = RouterClass::kCore;  // kCpe if either end is a CPE router
  Ipv4Prefix subnet;                     // the /31
  std::uint32_t metric = 10;
  /// Valid when this link is one of several parallel links between the same
  /// router pair (a multi-link adjacency).
  AdjacencyGroupId group;
};

/// A customer site: one or more CPE routers. The site is isolated when no
/// router of the site can reach the backbone hubs.
struct Customer {
  CustomerId id;
  std::string name;  // e.g. "edu042"
  std::vector<RouterId> routers;
};

/// Canonical link name used to join syslog-derived and IS-IS-derived events:
/// "hostA:ifA|hostB:ifB" with endpoints in lexicographic order (sect. 3.4).
std::string make_link_name(std::string_view host_a, std::string_view if_a,
                           std::string_view host_b, std::string_view if_b);

class Topology {
 public:
  // -- construction ---------------------------------------------------------
  RouterId add_router(std::string hostname, RouterClass cls,
                      RouterOs os = RouterOs::kIos,
                      CustomerId customer = CustomerId::invalid());
  CustomerId add_customer(std::string name);
  /// Creates the two interfaces and assigns the /31 out of the link space.
  LinkId add_link(RouterId a, std::string if_name_a, RouterId b,
                  std::string if_name_b, Ipv4Prefix subnet,
                  std::uint32_t metric,
                  AdjacencyGroupId group = AdjacencyGroupId::invalid());

  // -- accessors -------------------------------------------------------------
  const Router& router(RouterId id) const;
  const Interface& interface(InterfaceId id) const;
  const Link& link(LinkId id) const;
  const Customer& customer(CustomerId id) const;

  std::size_t router_count() const { return routers_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::size_t customer_count() const { return customers_.size(); }
  const std::vector<Router>& routers() const { return routers_; }
  const std::vector<Link>& links() const { return links_; }
  const std::vector<Customer>& customers() const { return customers_; }

  std::size_t router_count(RouterClass cls) const;
  std::size_t link_count(RouterClass cls) const;

  // -- lookups ---------------------------------------------------------------
  std::optional<RouterId> find_router(std::string_view hostname) const;
  std::optional<RouterId> find_router(const OsiSystemId& system_id) const;
  std::optional<InterfaceId> find_interface(RouterId router,
                                            std::string_view if_name) const;
  std::optional<LinkId> find_link_by_subnet(const Ipv4Prefix& subnet) const;
  /// All physical links between the given pair (>1 for multi-link pairs).
  std::vector<LinkId> links_between(RouterId a, RouterId b) const;

  /// Canonical "host:if|host:if" name of a link.
  std::string link_name(LinkId id) const;
  /// Other end of a link as seen from `from`.
  RouterId link_peer(LinkId id, RouterId from) const;

  // -- graph queries ----------------------------------------------------------
  /// (neighbor, link) pairs; parallel links appear once each.
  const std::vector<std::pair<RouterId, LinkId>>& adjacency(RouterId id) const;

  /// All multi-link adjacency groups: group id -> member links.
  const std::vector<std::vector<LinkId>>& adjacency_groups() const {
    return groups_;
  }
  AdjacencyGroupId new_adjacency_group();
  /// Add an already-created link to a multi-link adjacency group.
  void assign_group(LinkId link, AdjacencyGroupId group);

  /// Number of physical links that are members of some multi-link group.
  std::size_t multilink_member_count() const;

 private:
  std::vector<Router> routers_;
  std::vector<Interface> interfaces_;
  std::vector<Link> links_;
  std::vector<Customer> customers_;
  std::vector<std::vector<LinkId>> groups_;
  std::vector<std::vector<std::pair<RouterId, LinkId>>> adjacency_;
  std::unordered_map<Symbol, RouterId> by_hostname_;
  std::unordered_map<OsiSystemId, RouterId> by_system_id_;
  std::unordered_map<Ipv4Prefix, LinkId> by_subnet_;
};

}  // namespace netfail
