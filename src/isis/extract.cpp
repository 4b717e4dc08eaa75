#include "src/isis/extract.hpp"

#include <algorithm>
#include <optional>

#include "src/common/metrics.hpp"
#include "src/isis/pdu.hpp"

namespace netfail::isis {
namespace {

struct IsisMetrics {
  metrics::Counter& lsps = metrics::global().counter("isis.extract.lsps");
  metrics::Counter& decode_failures =
      metrics::global().counter("isis.extract.decode_failures");
  metrics::Counter& stale = metrics::global().counter("isis.extract.stale_lsps");
  metrics::Counter& transitions =
      metrics::global().counter("isis.extract.transitions");
};

// Namespace-scope so the per-LSP hot path carries no static-init guard.
IsisMetrics g_isis_metrics;

IsisMetrics& isis_metrics() { return g_isis_metrics; }

/// Count for `neighbor` in a sorted (neighbor, count) vector; 0 if absent.
int count_of(const std::vector<std::pair<OsiSystemId, int>>& counts,
             const OsiSystemId& neighbor) {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), neighbor,
      [](const auto& entry, const OsiSystemId& key) { return entry.first < key; });
  return (it != counts.end() && it->first == neighbor) ? it->second : 0;
}

}  // namespace

void StreamingExtractor::emit_is_transition(TimePoint t, LinkDirection dir,
                                            Symbol host_a, Symbol host_b,
                                            int count_after,
                                            std::vector<IsisTransition>& out) {
  IsisTransition tr;
  tr.time = t;
  tr.dir = dir;
  tr.field = ReachabilityField::kIsReach;
  tr.host_a = host_a;
  tr.host_b = host_b;
  tr.pair_count_after = count_after;
  const std::vector<LinkId>& candidates =
      census_->find_between_hosts(host_a, host_b);
  if (candidates.empty()) {
    ++stats_.unknown_host_pairs;
    return;
  }
  if (candidates.size() > 1) {
    tr.multilink = true;
    ++stats_.multilink_transitions;
  } else {
    tr.link = candidates.front();
  }
  out.push_back(tr);
}

void StreamingExtractor::update_pair(TimePoint t, Symbol from, Symbol to,
                                     int new_count, bool from_is_baseline,
                                     std::vector<IsisTransition>& out) {
  // Normalized lexicographically on the underlying hostnames (NOT symbol
  // ids), so emitted (host_a, host_b) ordering matches the string era.
  const auto [first, second] = sym::ordered(from, to);
  PairState& p = pairs_[sym::pair_key(from, to)];
  int& mine = (from == first) ? p.count_ab : p.count_ba;
  mine = new_count;
  const int now = std::min(p.count_ab, p.count_ba);
  if (p.active && !from_is_baseline) {
    while (p.last_min > now) {
      --p.last_min;
      emit_is_transition(t, LinkDirection::kDown, first, second, p.last_min,
                         out);
    }
    while (p.last_min < now) {
      ++p.last_min;
      emit_is_transition(t, LinkDirection::kUp, first, second, p.last_min, out);
    }
  } else {
    p.last_min = now;
  }
  // The pair starts emitting once both ends have reported at least once.
  if (!p.active) {
    p.active = initialized_hosts_.contains(to) &&
               (from_is_baseline || initialized_hosts_.contains(from));
  }
}

void StreamingExtractor::feed(const LspRecord& rec,
                              std::vector<IsisTransition>& out) {
  const std::size_t out_before = out.size();
  if (Status decoded = Lsp::decode_into(rec.bytes, scratch_lsp_); !decoded) {
    if (decoded.error().code == ErrorCode::kChecksumMismatch) {
      ++stats_.checksum_failures;
    } else {
      ++stats_.parse_failures;
    }
    isis_metrics().decode_failures.inc();
    return;
  }
  const Lsp& lsp = scratch_lsp_;
  ++stats_.lsps_processed;
  isis_metrics().lsps.inc();

  SourceState& src = sources_[lsp.source];
  if (src.initialized && lsp.sequence <= src.sequence) {
    ++stats_.stale_lsps;
    isis_metrics().stale.inc();
    return;
  }
  src.sequence = lsp.sequence;

  // A purge (remaining lifetime zero) withdraws everything the source
  // advertised: process it as an LSP with empty reachability.
  const bool purged = lsp.remaining_lifetime == 0;
  if (purged) ++stats_.purges;

  // Hostname resolution: prefer the dynamic-hostname TLV, fall back to the
  // config-mined mapping. Refreshes re-advertise the same hostname, so the
  // cached symbol from the previous LSP usually answers without touching the
  // interner's hash table.
  Symbol hostname;
  if (lsp.hostname.empty()) {
    hostname = census_->hostname_of(lsp.source);
  } else if (src.hostname.valid() && src.hostname == lsp.hostname) {
    hostname = src.hostname;
  } else {
    hostname = Symbol(lsp.hostname);
  }
  if (hostname.empty()) {
    // Cannot name this source; its adjacencies are unresolvable.
    ++stats_.unknown_host_pairs;
    return;
  }
  const bool hostname_changed = !(src.hostname == hostname);
  src.hostname = hostname;

  // ---- Diff IS reachability. ---------------------------------------------
  // (neighbor, count) sorted by neighbor, built in reused scratch storage.
  scratch_counts_.clear();
  if (!purged) {
    for (const IsReachEntry& e : lsp.is_reach) {
      scratch_counts_.emplace_back(e.neighbor, 1);
    }
    std::sort(scratch_counts_.begin(), scratch_counts_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t w = 0;
    for (std::size_t r = 0; r < scratch_counts_.size(); ++r) {
      if (w > 0 && scratch_counts_[w - 1].first == scratch_counts_[r].first) {
        ++scratch_counts_[w - 1].second;
      } else {
        scratch_counts_[w++] = scratch_counts_[r];
      }
    }
    scratch_counts_.resize(w);
  }

  const bool first_lsp = !src.initialized;
  // Refresh fast path: most LSPs re-advertise an unchanged adjacency set
  // (the protocol refreshes every ~15 min), so an O(n) equality check skips
  // both diff walks and the copy-back in the steady state.
  if (scratch_counts_ != src.adjacency_count) {
    // Removed or decreased neighbors (in sorted-neighbor order, like the old
    // std::map walk, so emission order is unchanged).
    for (const auto& [neighbor, old_count] : src.adjacency_count) {
      const int now = count_of(scratch_counts_, neighbor);
      if (now < old_count) {
        Symbol nbr_host = census_->hostname_of(neighbor);
        if (!nbr_host.valid()) nbr_host = Symbol(neighbor.to_string());
        update_pair(rec.received_at, hostname, nbr_host, now, first_lsp, out);
      }
    }
    // Added or increased neighbors.
    for (const auto& [neighbor, now] : scratch_counts_) {
      const int before = count_of(src.adjacency_count, neighbor);
      if (now > before) {
        Symbol nbr_host = census_->hostname_of(neighbor);
        if (!nbr_host.valid()) nbr_host = Symbol(neighbor.to_string());
        update_pair(rec.received_at, hostname, nbr_host, now, first_lsp, out);
      }
    }
    src.adjacency_count = scratch_counts_;  // copy; reuses src's capacity
  }

  // ---- Diff IP reachability. ---------------------------------------------
  scratch_prefixes_.clear();
  if (!purged) {
    for (const IpReachEntry& e : lsp.ip_reach) {
      if (e.prefix.length() == 31) scratch_prefixes_.push_back(e.prefix);
    }
    std::sort(scratch_prefixes_.begin(), scratch_prefixes_.end());
  }
  const std::vector<Ipv4Prefix>& new_prefixes = scratch_prefixes_;

  auto emit_ip_transition = [&](Ipv4Prefix prefix, LinkDirection dir) {
    IsisTransition tr;
    tr.time = rec.received_at;
    tr.dir = dir;
    tr.field = ReachabilityField::kIpReach;
    const std::optional<LinkId> link = census_->find_by_subnet(prefix);
    if (!link) {
      ++stats_.unknown_prefixes;
      return;
    }
    tr.link = *link;
    const CensusLink& cl = census_->link(*link);
    tr.host_a = cl.a.host;
    tr.host_b = cl.b.host;
    out.push_back(tr);
  };

  // Same refresh fast path as the adjacency diff: identical prefix sets
  // imply both walks are no-ops, so skip them and the copy-back.
  if (new_prefixes != src.prefixes) {
    // Withdrawn prefixes: advertiser count drops; reaching zero is a DOWN.
    for (const Ipv4Prefix& p : src.prefixes) {
      if (!std::binary_search(new_prefixes.begin(), new_prefixes.end(), p)) {
        if (--prefix_advertisers_[p] == 0) {
          emit_ip_transition(p, LinkDirection::kDown);
        }
      }
    }
    // Newly advertised prefixes: count rises; leaving zero is an UP (but the
    // first LSP from a source only sets baselines).
    for (const Ipv4Prefix& p : new_prefixes) {
      if (!std::binary_search(src.prefixes.begin(), src.prefixes.end(), p)) {
        if (prefix_advertisers_[p]++ == 0 && !first_lsp) {
          emit_ip_transition(p, LinkDirection::kUp);
        }
      }
    }
    src.prefixes = new_prefixes;  // copy; reuses src's capacity
  }
  src.initialized = true;
  // The hostname set only ever grows; re-inserting the same symbol on every
  // refresh is a wasted hash probe.
  if (first_lsp || hostname_changed) initialized_hosts_.insert(hostname);
  isis_metrics().transitions.inc(out.size() - out_before);
}

IsisExtraction extract_transitions(const std::vector<LspRecord>& records,
                                   const LinkCensus& census) {
  IsisExtraction out;
  StreamingExtractor extractor(&census);
  std::vector<IsisTransition> emitted;
  for (const LspRecord& rec : records) {
    emitted.clear();
    extractor.feed(rec, emitted);
    for (IsisTransition& tr : emitted) {
      if (tr.field == ReachabilityField::kIsReach) {
        out.is_reach.push_back(std::move(tr));
      } else {
        out.ip_reach.push_back(std::move(tr));
      }
    }
  }
  out.stats = extractor.stats();
  return out;
}

}  // namespace netfail::isis
