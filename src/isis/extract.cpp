#include "src/isis/extract.hpp"

#include <algorithm>
#include <array>
#include <future>
#include <optional>

#include "src/common/byte_slice.hpp"
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

void add_nonzero(metrics::Counter& c, std::size_t n) {
  if (n != 0) c.inc(n);
}

/// Publish the counts a differ added between `before` and `now`, plus
/// `transitions` emitted by the fold. Counters are added once per call, so
/// a lane pays one atomic add per counter per chunk, not per LSP.
void publish(const ExtractionStats& before, const ExtractionStats& now,
             std::size_t transitions) {
  IsisMetrics& m = isis_metrics();
  add_nonzero(m.lsps, now.lsps_processed - before.lsps_processed);
  add_nonzero(m.decode_failures,
              (now.checksum_failures + now.parse_failures) -
                  (before.checksum_failures + before.parse_failures));
  add_nonzero(m.stale, now.stale_lsps - before.stale_lsps);
  add_nonzero(m.transitions, transitions);
}

std::uint32_t u32(std::size_t n) { return static_cast<std::uint32_t>(n); }

/// Neighbor resolutions a source's memo holds at most.
constexpr std::size_t kMaxResolved = 64;

/// Normalized lexicographically on the underlying hostnames (NOT symbol
/// ids), so emitted (host_a, host_b) ordering matches the string era.
HostPair resolve_pair(const LinkCensus& census, Symbol a, Symbol b) {
  const auto [first, second] = sym::ordered(a, b);
  return HostPair{first, second,
                  &census.find_between_ordered(
                      sym::ordered_pair_key(first, second))};
}

/// `neighbor`'s change to `count` in an LSP from `source_host`, resolved
/// through that source's `memo` of earlier resolutions.
NeighborChange make_change(const LinkCensus& census,
                           std::vector<NeighborChange>& memo,
                           Symbol source_host, const OsiSystemId& neighbor,
                           int count) {
  for (const NeighborChange& m : memo) {
    if (m.neighbor == neighbor) {
      return NeighborChange{neighbor, m.host, count, m.pair};
    }
  }
  NeighborChange c{neighbor, census.hostname_of(neighbor), count, {}};
  if (c.host.valid()) c.pair = resolve_pair(census, source_host, c.host);
  // A router has a few dozen neighbors; a source that names more (a hostile
  // stream, say) starts the memo over rather than growing it without bound.
  if (memo.size() == kMaxResolved) memo.clear();
  memo.push_back(c);
  return c;
}

/// Appends to `out` each neighbor whose count fell from `before` to
/// `after`, in neighbor order, then each whose count rose. Both inputs are
/// sorted by neighbor without duplicates, so each walk is a linear merge.
void append_count_changes(const std::vector<std::pair<OsiSystemId, int>>& before,
                          const std::vector<std::pair<OsiSystemId, int>>& after,
                          const LinkCensus& census,
                          std::vector<NeighborChange>& memo, Symbol source_host,
                          std::vector<NeighborChange>& out) {
  auto it = after.begin();
  for (const auto& [neighbor, old_count] : before) {
    while (it != after.end() && it->first < neighbor) ++it;
    const int now = (it != after.end() && it->first == neighbor) ? it->second : 0;
    if (now < old_count) {
      out.push_back(make_change(census, memo, source_host, neighbor, now));
    }
  }
  it = before.begin();
  for (const auto& [neighbor, now] : after) {
    while (it != before.end() && it->first < neighbor) ++it;
    const int old_count =
        (it != before.end() && it->first == neighbor) ? it->second : 0;
    if (now > old_count) {
      out.push_back(make_change(census, memo, source_host, neighbor, now));
    }
  }
}

/// Appends each element of sorted `from` that does not occur in sorted
/// `other` (every copy of a repeated element, as membership decides).
void append_missing(const std::vector<Ipv4Prefix>& from,
                    const std::vector<Ipv4Prefix>& other,
                    std::vector<Ipv4Prefix>& out) {
  auto it = other.begin();
  for (const Ipv4Prefix& p : from) {
    while (it != other.end() && *it < p) ++it;
    if (it == other.end() || *it != p) out.push_back(p);
  }
}

}  // namespace

ExtractionStats& ExtractionStats::operator+=(const ExtractionStats& o) {
  lsps_processed += o.lsps_processed;
  checksum_failures += o.checksum_failures;
  parse_failures += o.parse_failures;
  stale_lsps += o.stale_lsps;
  purges += o.purges;
  unknown_host_pairs += o.unknown_host_pairs;
  unknown_prefixes += o.unknown_prefixes;
  multilink_transitions += o.multilink_transitions;
  return *this;
}

// ---- LspDiffer --------------------------------------------------------------

void LspDiffer::diff(const LspRecord& rec, std::size_t index,
                     DeltaBuffer& out, ExtractionStats& stats) {
  if (Status read = LspReach::read(rec.bytes.span(), scratch_); !read) {
    if (read.error().code == ErrorCode::kChecksumMismatch) {
      ++stats.checksum_failures;
    } else {
      ++stats.parse_failures;
    }
    return;
  }
  LspReach& lsp = scratch_;
  ++stats.lsps_processed;

  SourceState& src = sources_[lsp.source];
  if (src.initialized && lsp.sequence <= src.sequence) {
    ++stats.stale_lsps;
    return;
  }
  src.sequence = lsp.sequence;

  // A purge (remaining lifetime zero) withdraws everything the source
  // advertised: process it as an LSP with empty reachability.
  if (lsp.remaining_lifetime == 0) {
    ++stats.purges;
    lsp.neighbors.clear();
    lsp.p2p_prefixes.clear();
  }

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
    ++stats.unknown_host_pairs;
    return;
  }
  const bool first_lsp = !src.initialized;
  LspDelta d;
  d.record = index;
  d.host = hostname;
  d.baseline = first_lsp;
  // The fold's reported-host set only ever grows; re-inserting the same
  // symbol on every refresh is a wasted hash probe.
  d.note_host = first_lsp || !(src.hostname == hostname);
  // Resolved pairs are named after the source's host.
  if (!(src.hostname == hostname)) src.resolved.clear();
  src.hostname = hostname;

  // ---- Diff IS reachability. ---------------------------------------------
  d.neighbors_begin = u32(out.neighbors.size());
  // Refresh fast path: most LSPs re-advertise an unchanged adjacency set
  // (the protocol refreshes every ~15 min), so an O(n) equality check skips
  // both diff walks and the copy-back in the steady state.
  if (lsp.neighbors != src.adjacency_count) {
    append_count_changes(src.adjacency_count, lsp.neighbors, *census_,
                         src.resolved, hostname, out.neighbors);
    src.adjacency_count = lsp.neighbors;  // copy; reuses src's capacity
  }
  d.neighbors_end = u32(out.neighbors.size());

  // ---- Diff IP reachability. ---------------------------------------------
  d.withdrawn_begin = u32(out.prefixes.size());
  d.added_begin = d.withdrawn_begin;
  // Same refresh fast path as the adjacency diff.
  if (lsp.p2p_prefixes != src.prefixes) {
    append_missing(src.prefixes, lsp.p2p_prefixes, out.prefixes);
    d.added_begin = u32(out.prefixes.size());
    append_missing(lsp.p2p_prefixes, src.prefixes, out.prefixes);
    src.prefixes = lsp.p2p_prefixes;  // copy; reuses src's capacity
  }
  d.added_end = u32(out.prefixes.size());
  src.initialized = true;

  if (d.note_host || d.neighbors_end != d.neighbors_begin ||
      d.added_end != d.withdrawn_begin) {
    out.deltas.push_back(d);
  }
}

// ---- PairFold ---------------------------------------------------------------

void PairFold::emit_is_transition(TimePoint t, LinkDirection dir,
                                  const HostPair& pair, int count_after,
                                  ExtractionStats& stats,
                                  std::vector<IsisTransition>& out) {
  IsisTransition tr;
  tr.time = t;
  tr.dir = dir;
  tr.field = ReachabilityField::kIsReach;
  tr.host_a = pair.first;
  tr.host_b = pair.second;
  tr.pair_count_after = count_after;
  const std::vector<LinkId>& candidates = *pair.links;
  if (candidates.empty()) {
    ++stats.unknown_host_pairs;
    return;
  }
  if (candidates.size() > 1) {
    tr.multilink = true;
    ++stats.multilink_transitions;
  } else {
    tr.link = candidates.front();
  }
  out.push_back(tr);
}

void PairFold::emit_ip_transition(TimePoint t, Ipv4Prefix prefix,
                                  LinkDirection dir, ExtractionStats& stats,
                                  std::vector<IsisTransition>& out) {
  const std::optional<LinkId> link = census_->find_by_subnet(prefix);
  if (!link) {
    ++stats.unknown_prefixes;
    return;
  }
  IsisTransition tr;
  tr.time = t;
  tr.dir = dir;
  tr.field = ReachabilityField::kIpReach;
  tr.link = *link;
  const CensusLink& cl = census_->link(*link);
  tr.host_a = cl.a.host;
  tr.host_b = cl.b.host;
  out.push_back(tr);
}

void PairFold::update_pair(TimePoint t, Symbol from, Symbol to,
                           const HostPair& pair, int new_count,
                           bool from_is_baseline, ExtractionStats& stats,
                           std::vector<IsisTransition>& out) {
  PairState& p = pairs_[sym::ordered_pair_key(pair.first, pair.second)];
  int& mine = (from == pair.first) ? p.count_ab : p.count_ba;
  mine = new_count;
  const int now = std::min(p.count_ab, p.count_ba);
  if (p.active && !from_is_baseline) {
    while (p.last_min > now) {
      --p.last_min;
      emit_is_transition(t, LinkDirection::kDown, pair, p.last_min, stats,
                         out);
    }
    while (p.last_min < now) {
      ++p.last_min;
      emit_is_transition(t, LinkDirection::kUp, pair, p.last_min, stats, out);
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

void PairFold::apply(const DeltaBuffer& buf, const LspDelta& d, TimePoint t,
                     ExtractionStats& stats,
                     std::vector<IsisTransition>& is_out,
                     std::vector<IsisTransition>& ip_out) {
  for (std::uint32_t i = d.neighbors_begin; i < d.neighbors_end; ++i) {
    const NeighborChange& c = buf.neighbors[i];
    if (c.host.valid()) {
      update_pair(t, d.host, c.host, c.pair, c.count, d.baseline, stats,
                  is_out);
    } else {
      // Interning an unknown neighbor's rendering happens here, in record
      // order, never on a differ lane.
      const Symbol neighbor(c.neighbor.to_string());
      update_pair(t, d.host, neighbor, resolve_pair(*census_, d.host, neighbor),
                  c.count, d.baseline, stats, is_out);
    }
  }
  // Withdrawn prefixes: advertiser count drops; reaching zero is a DOWN.
  for (std::uint32_t i = d.withdrawn_begin; i < d.added_begin; ++i) {
    const Ipv4Prefix p = buf.prefixes[i];
    if (--prefix_advertisers_[p] == 0) {
      emit_ip_transition(t, p, LinkDirection::kDown, stats, ip_out);
    }
  }
  // Newly advertised prefixes: count rises; leaving zero is an UP (but the
  // first LSP from a source only sets baselines).
  for (std::uint32_t i = d.added_begin; i < d.added_end; ++i) {
    const Ipv4Prefix p = buf.prefixes[i];
    if (prefix_advertisers_[p]++ == 0 && !d.baseline) {
      emit_ip_transition(t, p, LinkDirection::kUp, stats, ip_out);
    }
  }
  if (d.note_host) initialized_hosts_.insert(d.host);
}

// ---- StreamingExtractor -----------------------------------------------------

void StreamingExtractor::feed(const LspRecord& rec,
                              std::vector<IsisTransition>& out) {
  const ExtractionStats before = stats_;
  const std::size_t out_before = out.size();
  delta_.clear();
  differ_.diff(rec, 0, delta_, stats_);
  for (const LspDelta& d : delta_.deltas) {
    fold_.apply(delta_, d, rec.received_at, stats_, out, out);
  }
  publish(before, stats_, out.size() - out_before);
}

// ---- Batch extraction in source lanes ---------------------------------------

namespace {

/// The lane that diffs record `rec`: a multiplicative hash of its source's
/// system id (the LSP ID's first six bytes, PDU bytes 12..17), so every
/// record of a source, and with them the source's differ state, stays on
/// one lane for the whole capture. A record too short to carry an id fails
/// decoding on lane 0.
std::uint8_t lane_of(const LspRecord& rec) {
  if (rec.bytes.size() < 18) return 0;
  const std::span<const std::uint8_t> bytes = rec.bytes.span();
  std::uint64_t id = 0;
  for (std::size_t i = 12; i < 18; ++i) id = (id << 8) | bytes[i];
  return static_cast<std::uint8_t>(((id * 0x9e3779b97f4a7c15ULL) >> 32) %
                                   kExtractLanes);
}

/// One differ lane. Chunk k's deltas and counts go to buffers[k % 2] and
/// stats[k % 2]: the caller folds chunk k - 1 from the other slot while
/// the lanes diff chunk k.
struct Lane {
  LspDiffer differ;
  std::array<DeltaBuffer, 2> buffers;
  std::array<ExtractionStats, 2> stats;
};

/// Diffs the records of [begin, end) that `lanes` (one entry per record)
/// gives to lane `id`, in record order.
void diff_chunk(Lane& lane, std::size_t id, std::size_t slot,
                const std::vector<std::uint8_t>& lanes,
                const std::vector<LspRecord>& records, std::size_t begin,
                std::size_t end) {
  DeltaBuffer& out = lane.buffers[slot];
  ExtractionStats& stats = lane.stats[slot];
  for (std::size_t i = begin; i < end; ++i) {
    if (lanes[i - begin] == id) lane.differ.diff(records[i], i, out, stats);
  }
  publish(ExtractionStats{}, stats, 0);
}

/// Folds one chunk's deltas from every lane in record order (each lane's
/// deltas are already in record order, so this is a k-way merge) into
/// `out`, recording where each record's transitions start.
void fold_chunk(PairFold& fold, const std::array<Lane, kExtractLanes>& lanes,
                std::size_t slot, const std::vector<LspRecord>& records,
                ExtractedChunk& out) {
  const std::size_t n = out.end - out.begin;
  out.is_reach.clear();
  out.ip_reach.clear();
  out.is_offsets.resize(n + 1);
  out.ip_offsets.resize(n + 1);
  out.stats = ExtractionStats{};
  for (const Lane& lane : lanes) out.stats += lane.stats[slot];
  std::size_t marked = 0;  // records whose start offsets are set
  auto mark_until = [&](std::size_t offset) {
    for (; marked <= offset; ++marked) {
      out.is_offsets[marked] = u32(out.is_reach.size());
      out.ip_offsets[marked] = u32(out.ip_reach.size());
    }
  };
  std::array<std::size_t, kExtractLanes> next{};
  for (;;) {
    const LspDelta* d = nullptr;
    std::size_t from = 0;
    for (std::size_t l = 0; l < kExtractLanes; ++l) {
      const std::vector<LspDelta>& deltas = lanes[l].buffers[slot].deltas;
      if (next[l] < deltas.size() &&
          (d == nullptr || deltas[next[l]].record < d->record)) {
        d = &deltas[next[l]];
        from = l;
      }
    }
    if (d == nullptr) break;
    mark_until(d->record - out.begin);
    fold.apply(lanes[from].buffers[slot], *d, records[d->record].received_at,
               out.stats, out.is_reach, out.ip_reach);
    ++next[from];
  }
  mark_until(n);
  add_nonzero(isis_metrics().transitions,
              out.is_reach.size() + out.ip_reach.size());
}

}  // namespace

struct LaneExtractor::State {
  State(const std::vector<LspRecord>& records_in, const LinkCensus& census)
      : records(records_in),
        release(records_in.empty() ? nullptr
                                   : records_in.front().bytes.view().data()),
        fold(&census),
        chunks((records_in.size() + kExtractChunk - 1) / kExtractChunk) {
    for (Lane& lane : lanes) lane.differ = LspDiffer(&census);
  }

  std::size_t chunk_begin(std::size_t k) const { return k * kExtractChunk; }
  std::size_t chunk_end(std::size_t k) const {
    return std::min(records.size(), (k + 1) * kExtractChunk);
  }

  /// Give each record of chunk k its lane, and count each lane's records.
  /// Touches nothing the lanes read, so it may run while they diff.
  void index(std::size_t k) {
    const std::size_t slot = k % 2;
    std::vector<std::uint8_t>& of_record = lane_of_record[slot];
    of_record.resize(chunk_end(k) - chunk_begin(k));
    lane_records[slot].fill(0);
    for (std::size_t i = chunk_begin(k); i < chunk_end(k); ++i) {
      const std::uint8_t lane = lane_of(records[i]);
      of_record[i - chunk_begin(k)] = lane;
      ++lane_records[slot][lane];
    }
  }

  /// Start the lanes diffing chunk k (indexed already). Runs while no lane
  /// is diffing.
  void launch(std::size_t k) {
    const std::size_t slot = k % 2;
    for (std::size_t l = 0; l < kExtractLanes; ++l) {
      Lane& lane = lanes[l];
      DeltaBuffer& buf = lane.buffers[slot];
      buf.clear();
      lane.stats[slot] = ExtractionStats{};
      const std::size_t n = lane_records[slot][l];
      if (n == 0) continue;
      // Sized here, on the caller: nearly every record yields a delta
      // with a change or two, and a buffer grown on a lane thread would
      // stay in that thread's malloc arena after the extraction.
      buf.deltas.reserve(n);
      buf.neighbors.reserve(n);
      buf.prefixes.reserve(n);
      diffs[l] = std::async(std::launch::async, [this, l, slot, k] {
        diff_chunk(lanes[l], l, slot, lane_of_record[slot], records,
                   chunk_begin(k), chunk_end(k));
      });
    }
  }

  void wait() {
    for (std::future<void>& f : diffs) {
      if (f.valid()) f.get();
    }
  }

  const std::vector<LspRecord>& records;
  /// Drops the pages of the records folded so far, on the thread that
  /// calls next_chunk.
  ReleaseBehind release;
  std::array<Lane, kExtractLanes> lanes;
  PairFold fold;
  const std::size_t chunks;
  std::size_t next = 0;  // the next chunk `next_chunk` returns
  /// Per chunk slot: each record's lane, and each lane's record count.
  std::array<std::vector<std::uint8_t>, 2> lane_of_record;
  std::array<std::array<std::size_t, kExtractLanes>, 2> lane_records{};
  std::array<std::future<void>, kExtractLanes> diffs;  // the chunk in flight
};

LaneExtractor::LaneExtractor(const std::vector<LspRecord>& records,
                             const LinkCensus& census)
    : state_(std::make_unique<State>(records, census)) {}

LaneExtractor::~LaneExtractor() { state_->wait(); }

bool LaneExtractor::next_chunk(ExtractedChunk& out) {
  State& st = *state_;
  if (st.next >= st.chunks) return false;
  const std::size_t k = st.next++;
  if (k == 0) {
    st.index(0);
    st.launch(0);
  }
  // While the lanes diff chunk k: index chunk k + 1.
  if (k + 1 < st.chunks) st.index(k + 1);
  st.wait();
  // Chunk k + 1 diffs while chunk k folds and until the next call.
  if (k + 1 < st.chunks) st.launch(k + 1);
  out.begin = st.chunk_begin(k);
  out.end = st.chunk_end(k);
  fold_chunk(st.fold, st.lanes, k % 2, st.records, out);
  st.release.consumed(st.records[out.end - 1].bytes.view());
  return true;
}

IsisExtraction extract_transitions(const std::vector<LspRecord>& records,
                                   const LinkCensus& census) {
  IsisExtraction out;
  LaneExtractor lanes(records, census);
  ExtractedChunk chunk;
  while (lanes.next_chunk(chunk)) {
    out.is_reach.insert(out.is_reach.end(), chunk.is_reach.begin(),
                        chunk.is_reach.end());
    out.ip_reach.insert(out.ip_reach.end(), chunk.ip_reach.begin(),
                        chunk.ip_reach.end());
    out.stats += chunk.stats;
  }
  return out;
}

}  // namespace netfail::isis
