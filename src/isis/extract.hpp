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
#pragma once

#include <string>
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
};

struct IsisExtraction {
  std::vector<IsisTransition> is_reach;
  std::vector<IsisTransition> ip_reach;
  ExtractionStats stats;
};

/// Process a listener's record stream. Records must be time-ordered (the
/// listener guarantees this).
IsisExtraction extract_transitions(const std::vector<LspRecord>& records,
                                   const LinkCensus& census);

/// Incremental form of `extract_transitions`: feed LSP records one at a
/// time and receive the transitions each record implies. Batch extraction
/// is a thin loop over this class, so both paths share one diff algorithm.
///
/// The extractor is a plain value (the census is referenced, not owned), so
/// the streaming engine can copy it into a checkpoint and resume later.
class StreamingExtractor {
 public:
  StreamingExtractor() = default;
  explicit StreamingExtractor(const LinkCensus* census) : census_(census) {}

  /// Decode and diff one record; transitions (IS-reach and IP-reach, in
  /// emission order) are appended to `out`. Records must arrive in listener
  /// time order.
  void feed(const LspRecord& rec, std::vector<IsisTransition>& out);

  const ExtractionStats& stats() const { return stats_; }
  /// Number of LSP sources (routers) currently tracked — the extractor's
  /// state is O(sources + adjacencies), independent of records fed.
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
  };

  /// Bidirectional adjacency bookkeeping for one unordered host pair.
  struct PairState {
    int count_ab = 0;  // adjacencies advertised by the lexically-first host
    int count_ba = 0;
    /// True once both hosts have reported a baseline; from then on changes
    /// in the bidirectional minimum are emitted as transitions.
    bool active = false;
    int last_min = 0;
  };

  void emit_is_transition(TimePoint t, LinkDirection dir, Symbol host_a,
                          Symbol host_b, int count_after,
                          std::vector<IsisTransition>& out);
  void update_pair(TimePoint t, Symbol from, Symbol to, int new_count,
                   bool from_is_baseline, std::vector<IsisTransition>& out);

  const LinkCensus* census_ = nullptr;
  ExtractionStats stats_;
  // Lookup-only tables (never iterated), so unordered + symbol keys is safe:
  // emission order is fully determined by the sorted per-source diffs.
  std::unordered_map<OsiSystemId, SourceState> sources_;
  std::unordered_map<std::uint64_t, PairState> pairs_;  // sym::pair_key
  std::unordered_set<Symbol> initialized_hosts_;
  std::unordered_map<Ipv4Prefix, int> prefix_advertisers_;
  // Per-feed scratch (reused so steady-state feeds allocate nothing).
  Lsp scratch_lsp_;
  std::vector<std::pair<OsiSystemId, int>> scratch_counts_;
  std::vector<Ipv4Prefix> scratch_prefixes_;
};

}  // namespace netfail::isis
