#include "src/config/census.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace netfail {

LinkId LinkCensus::add_link(CensusEndpoint e1, CensusEndpoint e2,
                            Ipv4Prefix subnet, TimeRange lifetime,
                            RouterClass cls) {
  NETFAIL_ASSERT(subnet.length() == 31, "census links use /31 subnets");
  // Canonical endpoint order (lexicographic on "host:iface").
  const std::string k1 = e1.host.str() + ":" + e1.iface.str();
  const std::string k2 = e2.host.str() + ":" + e2.iface.str();
  if (k2 < k1) std::swap(e1, e2);

  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  CensusLink l;
  l.id = id;
  l.name = make_link_name(e1.host.view(), e1.iface.view(), e2.host.view(),
                          e2.iface.view());
  l.a = e1;
  l.b = e2;
  l.subnet = subnet;
  l.lifetime = lifetime;
  l.cls = cls;
  NETFAIL_ASSERT(!by_name_.contains(l.name), "duplicate census link name");
  NETFAIL_ASSERT(!by_subnet_.contains(subnet), "duplicate census subnet");
  by_name_.emplace(l.name, id);
  by_subnet_.emplace(subnet, id);
  by_interface_.emplace(iface_key(l.a.host, l.a.iface), id);
  by_interface_.emplace(iface_key(l.b.host, l.b.iface), id);
  by_host_pair_[sym::pair_key(l.a.host, l.b.host)].push_back(id);
  links_.push_back(std::move(l));
  return id;
}

void LinkCensus::set_hostname(const OsiSystemId& system_id, Symbol hostname) {
  hostname_of_[system_id] = hostname;
}

void LinkCensus::finalize() {
  for (auto& [key, ids] : by_host_pair_) {
    std::sort(ids.begin(), ids.end());
    if (ids.size() > 1) {
      for (LinkId id : ids) links_[id.index()].multilink = true;
    }
  }
}

const CensusLink& LinkCensus::link(LinkId id) const {
  NETFAIL_ASSERT(id.valid() && id.index() < links_.size(), "bad census link id");
  return links_[id.index()];
}

std::optional<LinkId> LinkCensus::find_by_name(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<LinkId> LinkCensus::find_by_subnet(const Ipv4Prefix& subnet) const {
  auto it = by_subnet_.find(subnet);
  if (it == by_subnet_.end()) return std::nullopt;
  return it->second;
}

std::optional<LinkId> LinkCensus::find_by_interface(Symbol host,
                                                    Symbol iface) const {
  if (!host.valid() || !iface.valid()) return std::nullopt;
  auto it = by_interface_.find(iface_key(host, iface));
  if (it == by_interface_.end()) return std::nullopt;
  return it->second;
}

namespace {
const std::vector<LinkId> kNoLinks;
}  // namespace

const std::vector<LinkId>& LinkCensus::find_between_hosts(Symbol host1,
                                                          Symbol host2) const {
  if (!host1.valid() || !host2.valid()) return kNoLinks;
  return find_between_ordered(sym::pair_key(host1, host2));
}

const std::vector<LinkId>& LinkCensus::find_between_ordered(
    std::uint64_t key) const {
  auto it = by_host_pair_.find(key);
  if (it == by_host_pair_.end()) return kNoLinks;
  return it->second;
}

Symbol LinkCensus::hostname_of(const OsiSystemId& system_id) const {
  auto it = hostname_of_.find(system_id);
  if (it == hostname_of_.end()) return Symbol::invalid();
  return it->second;
}

std::size_t LinkCensus::count(RouterClass cls) const {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(),
                    [cls](const CensusLink& l) { return l.cls == cls; }));
}

std::size_t LinkCensus::multilink_member_count() const {
  return static_cast<std::size_t>(
      std::count_if(links_.begin(), links_.end(),
                    [](const CensusLink& l) { return l.multilink; }));
}

LinkCensus census_from_topology(const Topology& topo, TimeRange lifetime) {
  LinkCensus census;
  for (const Link& l : topo.links()) {
    const Router& ra = topo.router(l.router_a);
    const Router& rb = topo.router(l.router_b);
    const Interface& ia = topo.interface(l.if_a);
    const Interface& ib = topo.interface(l.if_b);
    census.add_link(CensusEndpoint{ra.hostname, ia.name, ia.address},
                    CensusEndpoint{rb.hostname, ib.name, ib.address}, l.subnet,
                    lifetime, l.cls);
  }
  for (const Router& r : topo.routers()) {
    census.set_hostname(r.system_id, r.hostname);
  }
  census.finalize();
  return census;
}

}  // namespace netfail
