// Classifying nonsensical syslog state changes (paper sect. 4.3, Table 6).
//
// A double DOWN (or double UP) can mean two things: the intervening message
// was *lost* (two genuine transitions, one unreported), or the repeated
// message was a *spurious retransmission* of unchanged state. With IS-IS as
// an oracle the two are distinguishable:
//   - lost:     the repeated message matches a genuine IS-IS transition and
//               IS-IS shows the opposite transition in between;
//   - spurious: IS-IS says the link was in exactly the repeated state.
#pragma once

#include <vector>

#include "src/analysis/match.hpp"
#include "src/analysis/reconstruct.hpp"

namespace netfail::analysis {

enum class AmbiguityCause { kLostMessage, kSpuriousRetransmission, kUnknown };

inline const char* ambiguity_cause_name(AmbiguityCause c) {
  switch (c) {
    case AmbiguityCause::kLostMessage: return "Lost Message";
    case AmbiguityCause::kSpuriousRetransmission:
      return "Spurious Retransmission";
    case AmbiguityCause::kUnknown: return "Unknown";
  }
  return "?";
}

struct AmbiguityClassification {
  // Table 6 cells.
  std::size_t lost_down = 0, lost_up = 0;
  std::size_t spurious_down = 0, spurious_up = 0;
  std::size_t unknown_down = 0, unknown_up = 0;

  /// Spurious downs whose repeated message re-reports the *same* IS-IS
  /// failure as the first (99% in the paper).
  std::size_t spurious_down_same_failure = 0;

  /// Total ambiguous link-time (the paper: 7.8% of the measurement period
  /// across all links).
  Duration ambiguous_time;

  std::size_t total_down() const { return lost_down + spurious_down + unknown_down; }
  std::size_t total_up() const { return lost_up + spurious_up + unknown_up; }
};

/// `isis_failures` is the sanitized IS-IS reconstruction;
/// `is_reach` the raw link-resolved transitions (for transition matching).
AmbiguityClassification classify_ambiguous(
    const std::vector<AmbiguousSegment>& segments,
    const std::vector<Failure>& isis_failures,
    const std::vector<isis::IsisTransition>& is_reach,
    const MatchOptions& options);
/// The same, with `is_reach` indexed and `isis_failures`' downtime built.
AmbiguityClassification classify_ambiguous(
    const std::vector<AmbiguousSegment>& segments,
    const std::vector<Failure>& isis_failures,
    const TransitionTimeIndex& is_reach, const LinkDowntime& isis_down,
    const MatchOptions& options);

}  // namespace netfail::analysis
