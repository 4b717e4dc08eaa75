// Flapping-episode detection (paper sect. 4.1): two or more consecutive
// failures on the same link separated by less than ten minutes form an
// episode. Syslog is known-unreliable inside episodes, so several analyses
// need to know which failures (and which time ranges) are "flappy".
#pragma once

#include <map>
#include <vector>

#include "src/analysis/failure.hpp"

namespace netfail::analysis {

/// The flap rule, shared by the batch `detect_flaps` and the stream
/// tracker: a run of at least kFlapMinFailures failures on one link, each
/// starting at most kFlapMaxGap after the previous one ended.
inline constexpr Duration kFlapMaxGap = Duration::minutes(10);
inline constexpr std::size_t kFlapMinFailures = 2;

/// Whether a failure starting at `next_begin` extends the run whose last
/// failure ended at `previous_end`. The one statement of the gap rule:
/// a gap of exactly kFlapMaxGap extends the run.
constexpr bool extends_flap_run(TimePoint previous_end, TimePoint next_begin) {
  return next_begin - previous_end <= kFlapMaxGap;
}

struct FlapEpisode {
  LinkId link;
  TimeRange span;  // first failure start .. last failure end
  std::size_t failure_count = 0;
};

struct FlapAnalysis {
  std::vector<FlapEpisode> episodes;
  /// Per-link union of episode spans (for "did X happen during flapping").
  std::map<LinkId, IntervalSet> flap_ranges;
  std::size_t failures_in_episodes = 0;
  std::size_t total_failures = 0;
};

/// Detects episodes and sets `in_flap_episode` on the input failures.
FlapAnalysis detect_flaps(std::vector<Failure>& failures);

}  // namespace netfail::analysis
