#include "src/topology/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/strfmt.hpp"

namespace netfail {
namespace {

// California POP codes, CENIC-style.
const char* const kCities[] = {"lax", "sac", "svl", "fre", "slo",
                               "sdg", "riv", "oak", "tus", "bak"};
constexpr int kCityCount = static_cast<int>(std::size(kCities));

/// Allocates /31 link subnets sequentially out of 137.164.0.0/16.
class SubnetAllocator {
 public:
  Ipv4Prefix next() {
    const Ipv4Prefix p{Ipv4Address{137, 164, static_cast<std::uint8_t>(next_ >> 8),
                                   static_cast<std::uint8_t>(next_ & 0xff)},
                       31};
    next_ += 2;
    NETFAIL_ASSERT(next_ < 0x10000, "link subnet space exhausted");
    return p;
  }

 private:
  std::uint32_t next_ = 0;
};

/// Per-router interface-name factory; keeps slot/port counters so names are
/// unique and look like real IOS / IOS-XR interface names.
class InterfaceNamer {
 public:
  explicit InterfaceNamer(std::size_t router_count) : counters_(router_count) {}

  std::string next(const Topology& topo, RouterId r) {
    const unsigned n = counters_[r.index()]++;
    if (topo.router(r).os == RouterOs::kIosXr) {
      return strformat("TenGigE0/%u/0/%u", n / 4, n % 4);
    }
    return strformat("GigabitEthernet0/%u", n);
  }

 private:
  std::vector<unsigned> counters_;
};

}  // namespace

TopologyParams TopologyParams::scaled_down(int factor) const {
  NETFAIL_ASSERT(factor >= 1, "scale factor must be >= 1");
  TopologyParams p = *this;
  p.core_routers = std::max(4, core_routers / factor);
  p.cpe_routers = std::max(4, cpe_routers / factor);
  p.customers = std::max(3, customers / factor);
  // Keep the same structural relationships the full-size generator relies on.
  p.multilink_pairs_core = std::min(multilink_pairs_core / factor, p.core_routers / 2);
  p.multilink_pairs_cpe = std::min(multilink_pairs_cpe / factor, p.cpe_routers / 4);
  p.core_links = p.core_routers + p.multilink_pairs_core + 1;
  p.cpe_links = p.cpe_routers + p.multilink_pairs_cpe + p.cpe_routers / 8;
  return p;
}

Topology generate_topology(const TopologyParams& params) {
  NETFAIL_ASSERT(params.core_routers >= 3, "need at least a 3-router ring");
  NETFAIL_ASSERT(params.cpe_routers >= 1, "need at least one CPE router");
  NETFAIL_ASSERT(params.customers >= 1 && params.customers <= params.cpe_routers,
                 "customer count must be in [1, cpe_routers]");

  Rng rng(params.seed);
  Topology topo;
  SubnetAllocator subnets;

  // ---- Core routers: a ring through the POP cities. -------------------------
  std::vector<RouterId> core;
  core.reserve(static_cast<std::size_t>(params.core_routers));
  std::vector<int> city_seq(static_cast<std::size_t>(params.core_routers));
  for (int i = 0; i < params.core_routers; ++i) {
    // Consecutive ring positions stay in the same city for a few routers so
    // the ring looks like POP-to-POP spans.
    city_seq[static_cast<std::size_t>(i)] = (i * kCityCount) / params.core_routers;
  }
  std::vector<int> per_city_counter(kCityCount, 0);
  for (int i = 0; i < params.core_routers; ++i) {
    const int city = city_seq[static_cast<std::size_t>(i)];
    const std::string name =
        strformat("%s-core-%d", kCities[city], ++per_city_counter[city]);
    core.push_back(topo.add_router(name, RouterClass::kCore, RouterOs::kIosXr));
  }

  InterfaceNamer namer(static_cast<std::size_t>(params.core_routers) +
                       static_cast<std::size_t>(params.cpe_routers));

  auto core_metric = [&rng] {
    return static_cast<std::uint32_t>(5 * rng.uniform_int(2, 10));
  };

  // Ring links.
  int core_links_made = 0;
  for (int i = 0; i < params.core_routers; ++i) {
    const RouterId a = core[static_cast<std::size_t>(i)];
    const RouterId b = core[static_cast<std::size_t>((i + 1) % params.core_routers)];
    topo.add_link(a, namer.next(topo, a), b, namer.next(topo, b), subnets.next(),
                  core_metric());
    ++core_links_made;
  }

  // Multi-link adjacencies between ring-adjacent core pairs: promote the
  // existing single link into a group and add parallel members.
  NETFAIL_ASSERT(params.multilink_pairs_core <= params.core_routers,
                 "too many core multi-link pairs");
  const int budget_after_ring = params.core_links - core_links_made;
  NETFAIL_ASSERT(budget_after_ring >= params.multilink_pairs_core,
                 "core link budget cannot fund multi-link pairs");
  // Every multi-link pair gets one extra member; the first few get two, so
  // multi-link member links approach the paper's ~20% of all links.
  int triple_pairs = std::min(params.multilink_pairs_core / 4,
                              budget_after_ring - params.multilink_pairs_core);
  if (triple_pairs < 0) triple_pairs = 0;
  for (int p = 0; p < params.multilink_pairs_core; ++p) {
    // Spread the chosen pairs around the ring.
    const int i = params.multilink_pairs_core == 0
                      ? 0
                      : (p * params.core_routers) / params.multilink_pairs_core;
    const RouterId a = core[static_cast<std::size_t>(i)];
    const RouterId b = core[static_cast<std::size_t>((i + 1) % params.core_routers)];
    const std::vector<LinkId> existing = topo.links_between(a, b);
    NETFAIL_ASSERT(!existing.empty(), "ring link missing");
    if (topo.link(existing.front()).group.valid()) continue;  // pair reused
    const AdjacencyGroupId group = topo.new_adjacency_group();
    topo.assign_group(existing.front(), group);
    const std::uint32_t metric = topo.link(existing.front()).metric;
    const int members_to_add = 1 + (p < triple_pairs ? 1 : 0);
    for (int m = 0; m < members_to_add; ++m) {
      topo.add_link(a, namer.next(topo, a), b, namer.next(topo, b), subnets.next(),
                    metric, group);
      ++core_links_made;
    }
  }

  // Chords: connect distant ring positions for redundancy.
  int chord_attempts = 0;
  while (core_links_made < params.core_links && chord_attempts < 10000) {
    ++chord_attempts;
    const int i = static_cast<int>(rng.uniform_int(0, params.core_routers - 1));
    const int span = static_cast<int>(
        rng.uniform_int(params.core_routers / 4, params.core_routers / 2));
    const int j = (i + span) % params.core_routers;
    const RouterId a = core[static_cast<std::size_t>(i)];
    const RouterId b = core[static_cast<std::size_t>(j)];
    if (a == b || !topo.links_between(a, b).empty()) continue;
    topo.add_link(a, namer.next(topo, a), b, namer.next(topo, b), subnets.next(),
                  core_metric());
    ++core_links_made;
  }
  NETFAIL_ASSERT(core_links_made == params.core_links,
                 "could not place all core links");

  // ---- Customers and CPE routers. -------------------------------------------
  std::vector<CustomerId> customers;
  customers.reserve(static_cast<std::size_t>(params.customers));
  for (int c = 0; c < params.customers; ++c) {
    customers.push_back(topo.add_customer(strformat("edu%03d", c)));
  }

  // Distribute CPE routers over customers: the first (cpe - customers) in
  // round-robin get a second router.
  std::vector<RouterId> cpe;
  cpe.reserve(static_cast<std::size_t>(params.cpe_routers));
  std::vector<int> routers_of_customer(static_cast<std::size_t>(params.customers), 0);
  for (int r = 0; r < params.cpe_routers; ++r) {
    const int c = r % params.customers;
    const int n = ++routers_of_customer[static_cast<std::size_t>(c)];
    const std::string name = strformat("edu%03d%s%d", c, kCpeHostToken.data(), n);
    cpe.push_back(topo.add_router(name, RouterClass::kCpe, RouterOs::kIos,
                                  customers[static_cast<std::size_t>(c)]));
  }

  // Uplinks: every CPE router homes to a deterministic-random core router.
  int cpe_links_made = 0;
  std::vector<RouterId> uplink_of(cpe.size());
  for (std::size_t r = 0; r < cpe.size(); ++r) {
    const RouterId hub =
        core[static_cast<std::size_t>(rng.uniform_int(0, params.core_routers - 1))];
    uplink_of[r] = hub;
    topo.add_link(cpe[r], namer.next(topo, cpe[r]), hub, namer.next(topo, hub),
                  subnets.next(), 100);
    ++cpe_links_made;
  }

  // Multi-link CPE adjacencies: parallel second link to the same hub.
  NETFAIL_ASSERT(params.multilink_pairs_cpe <= params.cpe_routers,
                 "too many CPE multi-link pairs");
  for (int p = 0; p < params.multilink_pairs_cpe &&
                  cpe_links_made < params.cpe_links;
       ++p) {
    const std::size_t r = static_cast<std::size_t>(p) *
                          (cpe.size() / std::max<std::size_t>(
                                            1, static_cast<std::size_t>(
                                                   params.multilink_pairs_cpe)));
    const std::vector<LinkId> existing = topo.links_between(cpe[r], uplink_of[r]);
    NETFAIL_ASSERT(!existing.empty(), "CPE uplink missing");
    if (topo.link(existing.front()).group.valid()) continue;  // pair reused
    const AdjacencyGroupId group = topo.new_adjacency_group();
    topo.assign_group(existing.front(), group);
    topo.add_link(cpe[r], namer.next(topo, cpe[r]), uplink_of[r],
                  namer.next(topo, uplink_of[r]), subnets.next(), 100, group);
    ++cpe_links_made;
  }

  // Dual-homing: remaining CPE budget becomes second uplinks to a different
  // core router. Single-router customers get the redundancy first — they are
  // the ones a lone uplink failure would isolate ("most customers are
  // multi-homed", paper sect. 4.4).
  std::vector<std::size_t> dual_candidates;
  for (std::size_t r = 0; r < cpe.size(); ++r) {
    const Router& router = topo.router(cpe[r]);
    if (topo.customer(router.customer).routers.size() == 1) {
      dual_candidates.push_back(r);
    }
  }
  for (std::size_t r = 0; r < cpe.size(); ++r) {
    const Router& router = topo.router(cpe[r]);
    if (topo.customer(router.customer).routers.size() > 1) {
      dual_candidates.push_back(r);
    }
  }
  std::size_t dual_cursor = 0;
  while (cpe_links_made < params.cpe_links) {
    NETFAIL_ASSERT(dual_cursor < dual_candidates.size(),
                   "CPE link budget exceeds dual-home capacity");
    const std::size_t r = dual_candidates[dual_cursor++];
    RouterId hub2;
    do {
      hub2 = core[static_cast<std::size_t>(rng.uniform_int(0, params.core_routers - 1))];
    } while (hub2 == uplink_of[r]);
    topo.add_link(cpe[r], namer.next(topo, cpe[r]), hub2, namer.next(topo, hub2),
                  subnets.next(), 100);
    ++cpe_links_made;
  }

  NETFAIL_ASSERT(topo.link_count(RouterClass::kCore) ==
                     static_cast<std::size_t>(params.core_links),
                 "core link census mismatch");
  NETFAIL_ASSERT(topo.link_count(RouterClass::kCpe) ==
                     static_cast<std::size_t>(params.cpe_links),
                 "CPE link census mismatch");
  return topo;
}

}  // namespace netfail
