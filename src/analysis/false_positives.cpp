#include "src/analysis/false_positives.hpp"

namespace netfail::analysis {

FalsePositiveBreakdown analyze_false_positives(
    const std::vector<Failure>& syslog_failures,
    const FailureMatchResult& match,
    const std::map<LinkId, IntervalSet>& flap_ranges) {
  FalsePositiveBreakdown out;
  for (const std::size_t index : match.syslog_only) {
    const Failure& f = syslog_failures[index];
    ++out.total;
    out.total_downtime += f.duration();
    if (f.duration() <= kShortFalsePositive) {
      ++out.short_count;
      out.short_downtime += f.duration();
      continue;
    }
    ++out.long_count;
    out.long_downtime += f.duration();
    const auto it = flap_ranges.find(f.link);
    if (it != flap_ranges.end() && it->second.overlaps(f.span)) {
      ++out.long_in_flap;
      out.long_in_flap_downtime += f.duration();
    }
  }
  return out;
}

}  // namespace netfail::analysis
