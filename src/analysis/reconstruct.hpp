// Link-state reconstruction: turn a time-ordered transition stream into
// failures (paper sect. 3.4).
//
// A failure is a DOWN followed by an UP on the same link. Two DOWNs without
// an intervening UP (or two UPs without a DOWN) leave the state between the
// repeated messages *ambiguous*; the paper evaluates four policies for the
// ambiguous period and finds "hold the previous state" — i.e. treat the
// second message as a spurious retransmission — closest to the IS-IS truth
// (sect. 4.3). All four are implemented for the ablation benchmark.
#pragma once

#include <vector>

#include "src/analysis/failure.hpp"
#include "src/common/events.hpp"
#include "src/isis/extract.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::analysis {

enum class AmbiguityPolicy {
  kDrop,        // prior work [17]: discard the affected episode entirely
  kAssumeDown,  // ambiguous period counts as downtime
  kAssumeUp,    // ambiguous period counts as uptime
  kHoldState,   // second message is spurious; state unchanged (recommended)
};

inline const char* ambiguity_policy_name(AmbiguityPolicy p) {
  switch (p) {
    case AmbiguityPolicy::kDrop: return "drop";
    case AmbiguityPolicy::kAssumeDown: return "assume-down";
    case AmbiguityPolicy::kAssumeUp: return "assume-up";
    case AmbiguityPolicy::kHoldState: return "hold-state";
  }
  return "?";
}

/// One repeated-direction occurrence (double DOWN or double UP).
struct AmbiguousSegment {
  LinkId link;
  LinkDirection repeated_dir = LinkDirection::kDown;
  TimePoint first_message;   // the message that set the state
  TimePoint second_message;  // the repeated message
};

/// Same-direction reports from the two ends of a link within this window
/// are one event, not a double message (both routers log each transition).
inline constexpr Duration kMergeWindow = Duration::seconds(3);

struct ReconstructOptions {
  /// Default matches the paper's *baseline* (sect. 3.4): the period between
  /// repeated messages is ambiguous, so it contributes no downtime — which
  /// for failure accounting behaves like assume-up. Sect. 4.3 then finds
  /// hold-state the best refinement; the repair-strategies benchmark
  /// compares all of them.
  AmbiguityPolicy policy = AmbiguityPolicy::kAssumeUp;
  /// Failures still open at the end of the study are dropped (no UP seen).
  TimeRange period;

  bool operator==(const ReconstructOptions&) const = default;
};

struct Reconstruction {
  std::vector<Failure> failures;
  std::vector<AmbiguousSegment> ambiguous;
  std::size_t double_downs = 0;
  std::size_t double_ups = 0;
  std::size_t merged_duplicates = 0;  // both-end reports collapsed
  std::size_t unterminated = 0;       // open failures dropped at period end
};

/// Reconstruct from syslog: uses only IS-IS adjacency-class messages (the
/// paper's link-state source); both ends' reports are merged.
Reconstruction reconstruct_from_syslog(
    const std::vector<syslog::SyslogTransition>& transitions,
    const ReconstructOptions& options);

/// Reconstruct from the IS-IS listener's IS-reachability transitions
/// (link-resolved ones only; multi-link pairs are excluded as in the paper).
Reconstruction reconstruct_from_isis(
    const std::vector<isis::IsisTransition>& transitions,
    const ReconstructOptions& options);

/// Shared core: reconstruct from (link, time, dir) triples.
struct RawTransition {
  LinkId link;
  TimePoint time;
  LinkDirection dir;
};
Reconstruction reconstruct(std::vector<RawTransition> transitions,
                           const ReconstructOptions& options);

}  // namespace netfail::analysis
