#include "tests/isis/hostile_capture.hpp"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/common/rng.hpp"
#include "src/isis/pdu.hpp"

namespace netfail::isis {

/// Routers h0..h8 on a ring of /31 links, with a second h0-h1 link (a
/// multi-link pair). h8 is unknown to the census: it omits TLV 137 on odd
/// sequence numbers (an unnameable source) and names itself otherwise.
/// Even routers omit TLV 137 (named from the census); h3 renames itself
/// half way. Adjacencies to an unknown system id and a /31 outside the
/// census appear at random. Records are corrupted (bad checksum), cut
/// short, replayed (stale sequence) and purged at random, and one router
/// at a time is far busier than the rest so the lanes' load shifts.
HostileCapture make_hostile(const HostileParams& params) {
  constexpr std::size_t kMaxRouters = 9;
  HostileCapture cap;
  Rng rng(params.seed);
  const TimeRange period{TimePoint::from_unix_seconds(0),
                         TimePoint::from_unix_seconds(10'000'000)};
  cap.period = period;
  auto id = [](std::size_t i) {
    return OsiSystemId::from_index(static_cast<std::uint32_t>(i + 1));
  };
  auto name = [](std::size_t i) { return "h" + std::to_string(i); };
  auto subnet = [](std::size_t link) {
    return Ipv4Prefix(Ipv4Address(10, 1, static_cast<std::uint8_t>(link),
                                  0),
                      31);
  };
  for (std::size_t i = 0; i + 1 < kMaxRouters; ++i) {
    cap.census.set_hostname(id(i), name(i));
  }
  // Ring links i -- i+1 (index i), then link kMaxRouters - 1 = second h0-h1.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t i = 0; i < kMaxRouters; ++i) {
    links.emplace_back(i, (i + 1) % kMaxRouters);
  }
  links.emplace_back(0, 1);
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto [a, b] = links[l];
    const Ipv4Prefix p = subnet(l);
    cap.census.add_link(
        CensusEndpoint{name(a), "Te0/" + std::to_string(l), p.network()},
        CensusEndpoint{name(b), "Te1/" + std::to_string(l),
                       Ipv4Address(p.network().value() + 1)},
        p, period, RouterClass::kCore);
  }
  cap.census.finalize();

  const std::size_t n = std::min(params.routers, kMaxRouters);
  const OsiSystemId stranger = OsiSystemId::from_index(4242);
  const Ipv4Prefix stray(Ipv4Address(192, 0, 2, 0), 31);
  // Per-router advertised state, and its last encoded LSPs for replays.
  std::vector<std::map<OsiSystemId, int>> adj(n);
  std::vector<std::set<Ipv4Prefix>> pfx(n);
  std::vector<std::uint32_t> seq(n, 0);
  std::vector<std::vector<std::vector<std::uint8_t>>> sent(n);
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto [a, b] = links[l];
    if (a >= n || b >= n) continue;
    ++adj[a][id(b)];
    ++adj[b][id(a)];
    pfx[a].insert(subnet(l));
    pfx[b].insert(subnet(l));
  }

  std::size_t busy = 0;
  std::int64_t t = 0;
  while (cap.records.size() < params.records) {
    if (cap.records.size() % 5000 == 0) {
      busy = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    const bool solo = cap.records.size() >= params.solo_from &&
                      cap.records.size() < params.solo_until;
    std::size_t r = 0;
    if (!solo) {
      r = rng.bernoulli(0.6) ? busy
                             : static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(n) - 1));
    }
    t += rng.uniform_int(1, 3);
    const TimePoint at = TimePoint::from_unix_seconds(t);

    if (!sent[r].empty() && rng.bernoulli(0.03)) {  // replay: stale sequence
      const auto& old = sent[r][static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sent[r].size()) - 1))];
      cap.records.push_back(LspRecord{at, ByteSlice::copy_of(old)});
      continue;
    }

    // Mutate: toggle a ring/multi-link adjacency, a prefix, the stranger
    // adjacency or the stray prefix; or leave it as a plain refresh.
    const double pick = rng.next_double();
    if (pick < 0.45) {
      const std::size_t l = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1));
      const auto [a, b] = links[l];
      if (a == r || b == r) {
        const OsiSystemId other = id(a == r ? b : a);
        const int cap_count = (l == 0 || l + 1 == links.size()) ? 2 : 1;
        int& c = adj[r][other];
        c = c >= cap_count ? c - 1 : c + 1;
        if (rng.bernoulli(0.5)) {
          if (pfx[r].contains(subnet(l))) {
            pfx[r].erase(subnet(l));
          } else {
            pfx[r].insert(subnet(l));
          }
        }
      }
    } else if (pick < 0.5) {
      int& c = adj[r][stranger];
      c = 1 - c;
    } else if (pick < 0.55) {
      if (pfx[r].contains(stray)) {
        pfx[r].erase(stray);
      } else {
        pfx[r].insert(stray);
      }
    }

    Lsp lsp;
    lsp.source = id(r);
    lsp.sequence = ++seq[r];
    lsp.remaining_lifetime = rng.bernoulli(0.01) ? 0 : 1199;
    const bool renamed = r == 3 && cap.records.size() > params.records / 2;
    if (r == kMaxRouters - 1) {
      if (lsp.sequence % 2 == 0) lsp.hostname = name(r);
    } else if (r % 2 == 1) {
      lsp.hostname = renamed ? "h3-renamed" : name(r);
    }
    for (const auto& [neighbor, count] : adj[r]) {
      for (int k = 0; k < count; ++k) {
        lsp.is_reach.push_back(IsReachEntry{neighbor, 0, 10});
      }
    }
    for (const Ipv4Prefix& p : pfx[r]) {
      lsp.ip_reach.push_back(IpReachEntry{10, p});
    }
    lsp.ip_reach.push_back(  // a loopback: not a /31, never diffed
        IpReachEntry{1, Ipv4Prefix(Ipv4Address(10, 255, 0,
                                               static_cast<std::uint8_t>(r)),
                                   32)});
    std::vector<std::uint8_t> bytes = lsp.encode();
    if (!solo && rng.bernoulli(0.02)) {  // bit rot: the checksum fails
      const std::size_t at_byte = static_cast<std::size_t>(
          rng.uniform_int(12, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at_byte] ^= 0x5a;
    } else if (!solo && rng.bernoulli(0.02)) {  // cut short, maybe to nothing
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
    } else {
      sent[r].push_back(bytes);
      if (sent[r].size() > 8) sent[r].erase(sent[r].begin());
    }
    cap.records.push_back(LspRecord{at, ByteSlice::copy_of(bytes)});
  }
  return cap;
}

}  // namespace netfail::isis
