// LSP stream -> link state transitions.
//
// Implements the paper's listener-side methodology (sect. 3.2/3.4): for each
// received LSP, diff the advertised IS reachability and IP reachability
// against the sender's previous advertisement, and resolve changes to links
// via the config-mined census. IS reachability is tracked per directed host
// pair, and a link-level transition fires when the *bidirectional* adjacency
// count changes — mirroring how the withdrawal by either end takes the
// adjacency out of service. Multi-link adjacencies cannot be resolved to a
// member link and are flagged instead (the paper omits them, sect. 3.4).
//
// Extraction is two steps with disjoint state:
//   1. `LspDiffer` — per source. Decodes and checksums the LSP, drops stale
//      sequence numbers, names the source and diffs the sorted adjacency
//      and /31 sets against that source's previous LSP, resolving each
//      changed neighbor's host pair through the census. Its output is a
//      small `LspDelta`: neighbor count changes, then withdrawn and added
//      prefixes. It reads only its own sources' state.
//   2. `PairFold` — in record order. Applies deltas to the bidirectional
//      pair counts and the per-prefix advertiser counts and emits
//      `IsisTransition`s.
// `StreamingExtractor` runs the two back to back per record: the one-lane
// schedule. `LaneExtractor` gives each source a fixed lane of
// `kExtractLanes` by a hash of its system id, diffs each chunk on the lanes
// concurrently and folds their deltas in record order, handing out one
// folded chunk at a time;
// `extract_transitions` drains it. Each source's records are diffed in file
// order and the fold sees record order on either schedule, so both produce
// the same transitions and stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/common/sym.hpp"
#include "src/config/census.hpp"
#include "src/isis/listener.hpp"
#include "src/isis/pdu.hpp"
#include "src/topology/ipv4.hpp"
#include "src/topology/osi.hpp"

namespace netfail::svc {
class EngineCodec;  // durable snapshot serializer (src/svc)
}  // namespace netfail::svc

namespace netfail::isis {

/// Which LSP field a transition was inferred from (paper Table 2 compares
/// the two).
enum class ReachabilityField { kIsReach, kIpReach };

inline const char* reachability_field_name(ReachabilityField f) {
  return f == ReachabilityField::kIsReach ? "IS reachability" : "IP reachability";
}

struct IsisTransition {
  TimePoint time;
  LinkDirection dir = LinkDirection::kDown;
  ReachabilityField field = ReachabilityField::kIsReach;
  /// Resolved census link; invalid when the change hit a multi-link
  /// adjacency (IS reach cannot tell members apart) or an unknown pair.
  LinkId link;
  bool multilink = false;
  /// Host pair, for diagnostics and multi-link accounting (interned).
  Symbol host_a;
  Symbol host_b;
  /// IS-reach only: the bidirectional adjacency count after this change.
  /// Lets consumers reconstruct the *logical* adjacency state of multi-link
  /// pairs (0 = the whole adjacency is down) even though the member link is
  /// unidentifiable.
  int pair_count_after = -1;
};

struct ExtractionStats {
  std::size_t lsps_processed = 0;
  std::size_t checksum_failures = 0;
  std::size_t parse_failures = 0;
  std::size_t stale_lsps = 0;            // non-increasing sequence numbers
  std::size_t purges = 0;                // zero-lifetime LSPs (withdraw all)
  std::size_t unknown_host_pairs = 0;    // adjacency to a host not in census
  std::size_t unknown_prefixes = 0;      // /31 not in census
  std::size_t multilink_transitions = 0; // IS-reach changes on multi-link pairs

  ExtractionStats& operator+=(const ExtractionStats& o);
};

struct IsisExtraction {
  std::vector<IsisTransition> is_reach;
  std::vector<IsisTransition> ip_reach;
  ExtractionStats stats;
};

/// Concurrent differ lanes of a batch extraction; records are diffed and
/// folded in chunks of `kExtractChunk`, so lane buffers stay O(chunk).
inline constexpr std::size_t kExtractLanes = 4;
inline constexpr std::size_t kExtractChunk = std::size_t{1} << 15;

/// Process a listener's record stream. Records must be time-ordered (the
/// listener guarantees this). Drains a `LaneExtractor`.
IsisExtraction extract_transitions(const std::vector<LspRecord>& records,
                                   const LinkCensus& census);

/// The transitions of records [begin, end) of a batch extraction, folded in
/// record order, and what extracting them counted. Refilled in place by
/// `LaneExtractor::next_chunk`, so a reused chunk stops allocating once warm.
struct ExtractedChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<IsisTransition> is_reach;
  std::vector<IsisTransition> ip_reach;
  /// Record `begin + i`'s transitions are is_reach[is_offsets[i],
  /// is_offsets[i + 1]), and likewise in ip_reach: end - begin + 1 entries.
  std::vector<std::uint32_t> is_offsets;
  std::vector<std::uint32_t> ip_offsets;
  ExtractionStats stats;

  /// Record `record`'s transitions; `record` must lie in [begin, end).
  std::span<const IsisTransition> is_reach_of(std::size_t record) const {
    const std::size_t i = record - begin;
    return {is_reach.data() + is_offsets[i], is_reach.data() + is_offsets[i + 1]};
  }
  std::span<const IsisTransition> ip_reach_of(std::size_t record) const {
    const std::size_t i = record - begin;
    return {ip_reach.data() + ip_offsets[i], ip_reach.data() + ip_offsets[i + 1]};
  }
};

/// Batch extraction as a chunk iterator. Chunk k is `kExtractChunk` records,
/// each diffed on its source's lane; while the lanes diff chunk k, the
/// caller folds chunk k - 1 (in `next_chunk`) and indexes chunk k + 1 (each
/// record's lane, each lane's count), and the lanes keep diffing between
/// calls. Not thread-safe: one thread calls `next_chunk`.
class LaneExtractor {
 public:
  /// `records` (time-ordered) and `census` must outlive the extractor.
  LaneExtractor(const std::vector<LspRecord>& records, const LinkCensus& census);
  ~LaneExtractor();  // waits for the lanes still diffing
  LaneExtractor(const LaneExtractor&) = delete;
  LaneExtractor& operator=(const LaneExtractor&) = delete;

  /// Refill `out` with the next chunk, in record order; false (and `out`
  /// untouched) once every chunk has been returned.
  bool next_chunk(ExtractedChunk& out);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// A host pair in `sym::ordered` form with its census links (empty for a
/// pair the census does not know; more than one for a multi-link pair).
struct HostPair {
  Symbol first;
  Symbol second;
  const std::vector<LinkId>* links = nullptr;
};

/// One neighbor whose adjacency count changed in a source's new LSP.
struct NeighborChange {
  OsiSystemId neighbor;
  /// Census hostname of the neighbor; invalid when the census does not know
  /// the system id (the fold then interns its rendering).
  Symbol host;
  int count = 0;  // adjacencies to `neighbor` in the new LSP
  /// (source host, `host`), resolved by the differ when `host` is valid, so
  /// the string compares and census lookups run on the differ's lane.
  HostPair pair;
};

/// What one record changed, as the fold needs it. The ranges index the
/// owning `DeltaBuffer`'s `neighbors` and `prefixes`.
struct LspDelta {
  std::size_t record = 0;    // caller-supplied index of the record
  Symbol host;               // the source's hostname
  bool baseline = false;     // first LSP from the source: sets baselines only
  bool note_host = false;    // `host` joins the set of reported hosts
  std::uint32_t neighbors_begin = 0;
  std::uint32_t neighbors_end = 0;
  std::uint32_t withdrawn_begin = 0;  // prefixes [withdrawn_begin, added_begin)
  std::uint32_t added_begin = 0;      // prefixes [added_begin, added_end)
  std::uint32_t added_end = 0;
};

/// Deltas of a run of records, in the order they were diffed. Cleared and
/// refilled in place, so a reused buffer stops allocating once warm.
struct DeltaBuffer {
  std::vector<LspDelta> deltas;
  std::vector<NeighborChange> neighbors;
  std::vector<Ipv4Prefix> prefixes;

  void clear() {
    deltas.clear();
    neighbors.clear();
    prefixes.clear();
  }
};

/// Step 1: per-source decode and diff. A differ's state is the sources it
/// has seen, so differs owning disjoint sources can run concurrently (they
/// share only the census, read-only, and the thread-safe symbol table).
class LspDiffer {
 public:
  LspDiffer() = default;
  explicit LspDiffer(const LinkCensus* census) : census_(census) {}

  /// Decode `rec` and diff it against its source's previous LSP. Appends
  /// one delta tagged `index` to `out` when the fold has work to do (the
  /// steady-state refresh has none); counts into `stats`.
  void diff(const LspRecord& rec, std::size_t index, DeltaBuffer& out,
            ExtractionStats& stats);

  /// Number of LSP sources (routers) tracked — O(sources), independent of
  /// records fed.
  std::size_t tracked_sources() const { return sources_.size(); }

 private:
  friend class netfail::svc::EngineCodec;

  /// Everything remembered about one LSP source between packets.
  struct SourceState {
    std::uint32_t sequence = 0;
    Symbol hostname;
    /// neighbor -> up adjacencies, sorted by neighbor. A sorted vector
    /// rather than a map: diffing walks it in order anyway, and assigning
    /// the new counts reuses capacity instead of re-allocating nodes.
    std::vector<std::pair<OsiSystemId, int>> adjacency_count;
    std::vector<Ipv4Prefix> prefixes;            // sorted
    bool initialized = false;                    // first LSP sets the baseline
    /// Each neighbor this source's changes have resolved under `hostname`
    /// (its `host` and `pair`; `count` unused), in the order first seen: a
    /// cache of census lookups, cleared when the hostname changes and never
    /// saved in a snapshot.
    std::vector<NeighborChange> resolved;
  };

  const LinkCensus* census_ = nullptr;
  // Lookup-only (never iterated), so unordered is safe.
  std::unordered_map<OsiSystemId, SourceState> sources_;
  // The current record, read by the one LSP walk into reused storage, so
  // steady-state diffs allocate nothing.
  LspReach scratch_;
};

/// Step 2: applies deltas in record order to the state that spans sources.
class PairFold {
 public:
  PairFold() = default;
  explicit PairFold(const LinkCensus* census) : census_(census) {}

  /// Apply delta `d` of `buf`, received at `t`. IS-reach transitions go to
  /// `is_out`, then IP-reach ones to `ip_out` (the same vector gives one
  /// stream in emission order); counts into `stats`.
  void apply(const DeltaBuffer& buf, const LspDelta& d, TimePoint t,
             ExtractionStats& stats, std::vector<IsisTransition>& is_out,
             std::vector<IsisTransition>& ip_out);

 private:
  friend class netfail::svc::EngineCodec;

  /// Bidirectional adjacency bookkeeping for one unordered host pair.
  struct PairState {
    int count_ab = 0;  // adjacencies advertised by the lexically-first host
    int count_ba = 0;
    /// True once both hosts have reported a baseline; from then on changes
    /// in the bidirectional minimum are emitted as transitions.
    bool active = false;
    int last_min = 0;
  };

  void emit_is_transition(TimePoint t, LinkDirection dir, const HostPair& pair,
                          int count_after, ExtractionStats& stats,
                          std::vector<IsisTransition>& out);
  void emit_ip_transition(TimePoint t, Ipv4Prefix prefix, LinkDirection dir,
                          ExtractionStats& stats,
                          std::vector<IsisTransition>& out);
  void update_pair(TimePoint t, Symbol from, Symbol to, const HostPair& pair,
                   int new_count, bool from_is_baseline,
                   ExtractionStats& stats, std::vector<IsisTransition>& out);

  const LinkCensus* census_ = nullptr;
  // Lookup-only tables (never iterated), so unordered + symbol keys is safe:
  // emission order is fully determined by the deltas' order.
  std::unordered_map<std::uint64_t, PairState> pairs_;  // sym::pair_key
  std::unordered_set<Symbol> initialized_hosts_;
  std::unordered_map<Ipv4Prefix, int> prefix_advertisers_;
};

/// Incremental form of `extract_transitions`: feed LSP records one at a
/// time and receive the transitions each record implies — the differ and
/// the fold back to back, so both paths share one algorithm.
///
/// The extractor is a plain value (the census is referenced, not owned), so
/// the streaming engine can copy it into a checkpoint and resume later.
class StreamingExtractor {
 public:
  StreamingExtractor() = default;
  explicit StreamingExtractor(const LinkCensus* census)
      : differ_(census), fold_(census) {}

  /// Decode and diff one record; transitions (IS-reach and IP-reach, in
  /// emission order) are appended to `out`. Records must arrive in listener
  /// time order.
  void feed(const LspRecord& rec, std::vector<IsisTransition>& out);

  const ExtractionStats& stats() const { return stats_; }
  /// Number of LSP sources (routers) currently tracked — the extractor's
  /// state is O(sources + adjacencies), independent of records fed.
  std::size_t tracked_sources() const { return differ_.tracked_sources(); }

 private:
  friend class netfail::svc::EngineCodec;

  LspDiffer differ_;
  PairFold fold_;
  ExtractionStats stats_;
  DeltaBuffer delta_;  // the current record's delta (reused)
};

}  // namespace netfail::isis
