#include "src/analysis/isolation.hpp"

#include <algorithm>
#include <set>

#include "src/analysis/dense_links.hpp"
#include "src/common/assert.hpp"

namespace netfail::analysis {

std::uint64_t host_pair_key(Symbol a, Symbol b) { return sym::pair_key(a, b); }

PairDowntime pair_downtime_from_failures(const LinkCensus& census,
                                         const std::vector<Failure>& failures) {
  // Member downtime per link, then intersect across each pair's members.
  const LinkDowntime member(failures);

  // Group census links by host pair.
  std::unordered_map<std::uint64_t, std::vector<LinkId>> pairs;
  for (const CensusLink& l : census.links()) {
    pairs[host_pair_key(l.a.host, l.b.host)].push_back(l.id);
  }

  PairDowntime out;
  for (const auto& [key, links] : pairs) {
    IntervalSet down;
    bool first = true;
    for (LinkId id : links) {
      const IntervalSet* found = member.find(id);
      const IntervalSet link_down = found == nullptr ? IntervalSet{} : *found;
      if (first) {
        down = link_down;
        first = false;
      } else {
        down = down.intersect(link_down);
      }
      if (down.empty()) break;  // one always-up member keeps the pair up
    }
    if (!down.empty()) out[key] = std::move(down);
  }
  return out;
}

PairDowntime pair_downtime_from_isis(
    const LinkCensus& census, const std::vector<Failure>& failures,
    const std::vector<isis::IsisTransition>& is_reach, TimeRange period) {
  PairDowntime out;

  // Single-link pairs: straight from the reconstructed failures, in link
  // order. A link whose failures are all empty still gets its pair's entry;
  // the last slot, the invalid id, names no census link.
  const LinkDowntime down(failures);
  for (std::size_t s = 0; s + 1 < down.slots().size(); ++s) {
    if (down.failures(s) == 0) continue;
    const CensusLink& l = census.link(down.slots().link(s));
    if (l.multilink) continue;  // handled below from pair counts
    IntervalSet& set = out[host_pair_key(l.a.host, l.b.host)];
    set = set.unite(down.at(s));
  }

  // Multi-link pairs: the adjacency is down while pair_count_after == 0.
  struct PairWalk {
    bool down = false;
    TimePoint since;
  };
  std::unordered_map<std::uint64_t, PairWalk> walks;
  for (const isis::IsisTransition& tr : is_reach) {
    if (!tr.multilink || tr.pair_count_after < 0) continue;
    const std::uint64_t key = host_pair_key(tr.host_a, tr.host_b);
    PairWalk& w = walks[key];
    if (tr.pair_count_after == 0 && tr.dir == LinkDirection::kDown) {
      if (!w.down) {
        w.down = true;
        w.since = tr.time;
      }
    } else if (w.down && tr.pair_count_after > 0) {
      out[key].add(TimeRange{w.since, tr.time});
      w.down = false;
    }
  }
  for (const auto& [key, w] : walks) {
    if (w.down) out[key].add(TimeRange{w.since, period.end});
  }
  return out;
}

IsolationResult compute_isolation(const LinkCensus& census,
                                  const PairDowntime& pair_downtime,
                                  TimeRange period) {
  // ---- build the hostname graph ----------------------------------------------
  std::unordered_map<Symbol, int> node_of;
  std::vector<Symbol> hostnames;
  auto node = [&](Symbol host) {
    const auto [it, inserted] =
        node_of.emplace(host, static_cast<int>(hostnames.size()));
    if (inserted) hostnames.push_back(host);
    return it->second;
  };

  struct Edge {
    int u, v;
    bool down = false;
  };
  std::vector<Edge> edges;
  std::unordered_map<std::uint64_t, int> edge_of_pair;
  for (const CensusLink& l : census.links()) {
    const std::uint64_t key = host_pair_key(l.a.host, l.b.host);
    if (edge_of_pair.contains(key)) continue;  // one logical edge per pair
    edge_of_pair.emplace(key, static_cast<int>(edges.size()));
    edges.push_back(Edge{node(l.a.host), node(l.b.host), false});
  }

  const int n = static_cast<int>(hostnames.size());
  std::vector<std::vector<std::pair<int, int>>> adj(
      static_cast<std::size_t>(n));  // (neighbor, edge index)
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[static_cast<std::size_t>(edges[e].u)].emplace_back(edges[e].v,
                                                           static_cast<int>(e));
    adj[static_cast<std::size_t>(edges[e].v)].emplace_back(edges[e].u,
                                                           static_cast<int>(e));
  }

  // Backbone roots and customer membership.
  std::vector<bool> is_root(static_cast<std::size_t>(n), false);
  std::map<std::string, std::vector<int>> customer_nodes;
  for (int v = 0; v < n; ++v) {
    const std::string_view host = hostnames[static_cast<std::size_t>(v)].view();
    const std::size_t tok = host.find(kCpeHostToken);
    if (tok == std::string_view::npos) {
      is_root[static_cast<std::size_t>(v)] = true;
    } else {
      customer_nodes[std::string(host.substr(0, tok))].push_back(v);
    }
  }

  // ---- event sweep -------------------------------------------------------------
  struct Change {
    TimePoint time;
    int edge;
    bool down;
  };
  std::vector<Change> changes;
  for (const auto& [key, set] : pair_downtime) {
    const auto it = edge_of_pair.find(key);
    if (it == edge_of_pair.end()) continue;
    for (const TimeRange& r : set.ranges()) {
      changes.push_back(Change{std::max(r.begin, period.begin), it->second, true});
      changes.push_back(Change{std::min(r.end, period.end), it->second, false});
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) { return a.time < b.time; });

  // Reachability from the backbone over up edges.
  std::vector<char> reachable(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  auto recompute = [&] {
    std::fill(reachable.begin(), reachable.end(), 0);
    stack.clear();
    for (int v = 0; v < n; ++v) {
      if (is_root[static_cast<std::size_t>(v)]) {
        reachable[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    }
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const auto& [w, e] : adj[static_cast<std::size_t>(v)]) {
        if (edges[static_cast<std::size_t>(e)].down) continue;
        if (!reachable[static_cast<std::size_t>(w)]) {
          reachable[static_cast<std::size_t>(w)] = 1;
          stack.push_back(w);
        }
      }
    }
  };

  IsolationResult out;
  std::map<std::string, TimePoint> isolated_since;
  auto update_customers = [&](TimePoint t) {
    for (const auto& [customer, nodes] : customer_nodes) {
      bool any_reachable = false;
      for (int v : nodes) {
        if (reachable[static_cast<std::size_t>(v)]) {
          any_reachable = true;
          break;
        }
      }
      const auto it = isolated_since.find(customer);
      if (!any_reachable && it == isolated_since.end()) {
        isolated_since.emplace(customer, t);
      } else if (any_reachable && it != isolated_since.end()) {
        if (t > it->second) {
          out.by_customer[customer].add(TimeRange{it->second, t});
        }
        isolated_since.erase(it);
      }
    }
  };

  std::size_t i = 0;
  while (i < changes.size()) {
    const TimePoint t = changes[i].time;
    while (i < changes.size() && changes[i].time == t) {
      edges[static_cast<std::size_t>(changes[i].edge)].down = changes[i].down;
      ++i;
    }
    recompute();
    update_customers(t);
  }
  // Close out anything still isolated at period end.
  for (const auto& [customer, since] : isolated_since) {
    if (period.end > since) {
      out.by_customer[customer].add(TimeRange{since, period.end});
    }
  }

  // ---- aggregate -----------------------------------------------------------------
  std::set<std::string> sites;
  for (const auto& [customer, set] : out.by_customer) {
    if (set.empty()) continue;
    sites.insert(customer);
    out.total_isolation += set.total();
    for (const TimeRange& r : set.ranges()) {
      out.events.push_back(IsolationEvent{customer, r});
    }
  }
  out.sites_impacted = sites.size();
  std::sort(out.events.begin(), out.events.end(),
            [](const IsolationEvent& a, const IsolationEvent& b) {
              return a.span.begin < b.span.begin;
            });
  return out;
}

IsolationResult intersect_isolation(const IsolationResult& a,
                                    const IsolationResult& b) {
  IsolationResult out;
  for (const auto& [customer, set_a] : a.by_customer) {
    const auto it = b.by_customer.find(customer);
    if (it == b.by_customer.end()) continue;
    IntervalSet both = set_a.intersect(it->second);
    if (both.empty()) continue;
    out.total_isolation += both.total();
    ++out.sites_impacted;
    for (const TimeRange& r : both.ranges()) {
      out.events.push_back(IsolationEvent{customer, r});
    }
    out.by_customer.emplace(customer, std::move(both));
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const IsolationEvent& a2, const IsolationEvent& b2) {
              return a2.span.begin < b2.span.begin;
            });
  return out;
}

std::size_t unmatched_events(const IsolationResult& a,
                             const IsolationResult& b) {
  std::size_t n = 0;
  for (const IsolationEvent& ev : a.events) {
    const auto it = b.by_customer.find(ev.customer);
    if (it == b.by_customer.end() || !it->second.overlaps(ev.span)) ++n;
  }
  return n;
}

}  // namespace netfail::analysis
