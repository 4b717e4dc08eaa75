// Breakdown of syslog's false-positive failures (paper sect. 4.3, first
// half): failures syslog reports that IS-IS never saw.
//
// The paper's findings, which this module reproduces: short (<= 10 s) false
// positives are 83% of the count but under an hour of downtime; nearly all
// of the false downtime sits in the few long ones, and all but a handful of
// those occur during flapping episodes.
#pragma once

#include <map>
#include <vector>

#include "src/analysis/failure.hpp"
#include "src/analysis/match.hpp"

namespace netfail::analysis {

struct FalsePositiveBreakdown {
  std::size_t total = 0;
  Duration total_downtime;

  std::size_t short_count = 0;  // duration <= kShortFalsePositive
  Duration short_downtime;
  std::size_t long_count = 0;
  Duration long_downtime;
  /// Long false positives that fall inside a flapping episode (paper: all
  /// but 19 of the >10 s false positives).
  std::size_t long_in_flap = 0;
  Duration long_in_flap_downtime;

  double short_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(short_count) /
                            static_cast<double>(total);
  }
  double long_downtime_fraction() const {
    return total_downtime.is_zero()
               ? 0.0
               : long_downtime.seconds_f() / total_downtime.seconds_f();
  }
};

/// A false positive this long or shorter is short (the paper's 10 s).
inline constexpr Duration kShortFalsePositive = Duration::seconds(10);

/// `syslog_failures` is the full syslog reconstruction; `match` supplies the
/// syslog_only indices; `flap_ranges` the per-link flapping episodes (from
/// either source's FlapAnalysis — the paper uses the syslog view here).
FalsePositiveBreakdown analyze_false_positives(
    const std::vector<Failure>& syslog_failures,
    const FailureMatchResult& match,
    const std::map<LinkId, IntervalSet>& flap_ranges);

}  // namespace netfail::analysis
