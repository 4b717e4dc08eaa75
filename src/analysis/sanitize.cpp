#include "src/analysis/sanitize.hpp"

#include <algorithm>

namespace netfail::analysis {

SanitizationReport remove_listener_gap_failures(
    std::vector<Failure>& failures, const IntervalSet& listener_gaps) {
  SanitizationReport report;
  std::erase_if(failures, [&](const Failure& f) {
    if (listener_gaps.overlaps(f.span)) {
      ++report.removed_listener_gap;
      return true;
    }
    return false;
  });
  return report;
}

SanitizationReport verify_long_failures(std::vector<Failure>& failures,
                                        const LinkCensus& census,
                                        const TicketStore& tickets) {
  SanitizationReport report;
  std::erase_if(failures, [&](const Failure& f) {
    if (f.duration() < kLongFailure) return false;
    ++report.long_failures_checked;
    const std::string& name = census.link(f.link).name;
    if (tickets.corroborates(name, f.span, kTicketOverlapFraction)) {
      ++report.long_failures_confirmed;
      return false;
    }
    ++report.long_failures_removed;
    report.spurious_hours_removed += f.duration();
    return true;
  });
  return report;
}

}  // namespace netfail::analysis
