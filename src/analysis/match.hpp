// Matching: the paper's 10-second joins between the two data sources
// (sect. 3.4).
//
// Two granularities:
//   - transition matching (Tables 2 and 3): an IS-IS transition and a syslog
//     message match when they are on the same link, in the same direction,
//     within the window;
//   - failure matching (Table 4): two failures match when both their start
//     times and their end times agree within the window.
//
// Every windowed probe starts at a binary-searched position in a sorted
// per-link list, so a join costs O((n + m) log n) per link rather than
// O(n * m). The per-link lists are dense tables (dense_links.hpp), grouped
// in one counting pass.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/analysis/dense_links.hpp"
#include "src/analysis/failure.hpp"
#include "src/common/interval_set.hpp"
#include "src/isis/extract.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::analysis {

struct MatchOptions {
  Duration window = Duration::seconds(10);
};

/// IS-IS transitions the comparison can place on one link: a census link,
/// not a multi-link pair (the extractor gives a multi-link transition no
/// link, so this is the transition's link being valid).
inline bool link_resolved(const isis::IsisTransition& tr) {
  return tr.link.valid() && !tr.multilink;
}

/// Sorted transition times per (link, direction) of the link-resolved
/// transitions of one stream: the probe behind the transition-level joins
/// of Tables 2 and 6. Dense: one bucket per (link, direction) slot.
class TransitionTimeIndex {
 public:
  TransitionTimeIndex() = default;
  explicit TransitionTimeIndex(
      const std::vector<isis::IsisTransition>& transitions);

  /// Is any time of (link, dir) in [t - window, t + window]?
  bool any_within(LinkId link, LinkDirection dir, TimePoint t,
                  Duration window) const;
  /// Is any time of (link, dir) strictly between a and b?
  bool any_between(LinkId link, LinkDirection dir, TimePoint a,
                   TimePoint b) const;

 private:
  LinkSlots slots_;
  Buckets<TimePoint> times_;
};

// ---- Table 3: IS-IS transitions vs per-router syslog messages ---------------

struct TransitionMatchCounts {
  std::size_t down_none = 0, down_one = 0, down_both = 0;
  std::size_t up_none = 0, up_one = 0, up_both = 0;
  /// Of the unmatched (None) transitions, how many fall inside a flapping
  /// episode (sect. 4.1 reports 67% / 61%).
  std::size_t down_none_in_flap = 0, up_none_in_flap = 0;

  std::size_t down_total() const { return down_none + down_one + down_both; }
  std::size_t up_total() const { return up_none + up_one + up_both; }
};

/// `isis` must contain link-resolved IS-reach transitions; `syslog` is the
/// full extraction (only adjacency-class messages participate). `flaps`
/// gives per-link flapping-episode intervals for the attribution counters.
TransitionMatchCounts match_transitions(
    const std::vector<isis::IsisTransition>& isis,
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::map<LinkId, IntervalSet>& flaps, const MatchOptions& options);

// ---- Table 2: syslog messages vs IS/IP reachability --------------------------

struct ReachabilityMatchTable {
  /// Fraction of syslog messages of each (class, direction) with a matching
  /// transition in each LSP field; rows of the paper's Table 2.
  double isis_down_vs_is = 0, isis_down_vs_ip = 0;
  double isis_up_vs_is = 0, isis_up_vs_ip = 0;
  double media_down_vs_is = 0, media_down_vs_ip = 0;
  double media_up_vs_is = 0, media_up_vs_ip = 0;
  std::size_t isis_down_messages = 0, isis_up_messages = 0;
  std::size_t media_down_messages = 0, media_up_messages = 0;
};

/// `is_reach` / `ip_reach` are the two transition streams of the extraction.
ReachabilityMatchTable match_reachability(
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::vector<isis::IsisTransition>& is_reach,
    const std::vector<isis::IsisTransition>& ip_reach,
    const MatchOptions& options);
/// The same, with the IS-reach stream already indexed.
ReachabilityMatchTable match_reachability(
    const std::vector<syslog::SyslogTransition>& syslog,
    const TransitionTimeIndex& is_reach,
    const std::vector<isis::IsisTransition>& ip_reach,
    const MatchOptions& options);

// ---- Table 4: failure-level matching ----------------------------------------

struct FailureMatchResult {
  std::size_t isis_count = 0;
  std::size_t syslog_count = 0;
  std::size_t matched = 0;
  Duration isis_downtime;
  Duration syslog_downtime;
  Duration overlap_downtime;  // intersection of the two downtime sets

  /// Indices into the input vectors.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> syslog_only;  // candidate false positives
  std::vector<std::size_t> isis_only;
  /// Of syslog_only, those that at least intersect some IS-IS failure.
  std::size_t syslog_partial = 0;
  /// Downtime of syslog-only failures that do not intersect IS-IS downtime
  /// at all (pure false-positive downtime, sect. 4.3).
  Duration syslog_false_downtime;
};

/// Greedy 1-1 matching: each syslog failure, in input order, takes the
/// earliest unused IS-IS failure of its link whose start and end both agree
/// within the window.
///
/// Precondition: each link's IS-IS failures appear in `isis` in
/// chronological (non-decreasing begin) order, as reconstruct emits them.
/// The probe binary-searches that order; a violation aborts.
FailureMatchResult match_failures(const std::vector<Failure>& isis,
                                  const std::vector<Failure>& syslog,
                                  const MatchOptions& options);
/// The same, with `isis`'s downtime already built.
FailureMatchResult match_failures(const std::vector<Failure>& isis,
                                  const LinkDowntime& isis_down,
                                  const std::vector<Failure>& syslog,
                                  const MatchOptions& options);

}  // namespace netfail::analysis
