// Sanitization (paper sect. 4.2, Table 4 caption): basic data cleaning
// applied before any comparison.
//
//   1. Remove failures that span periods when the IS-IS listener was
//      offline — neither source can be trusted about them.
//   2. Manually verify every syslog failure longer than 24 hours against
//      trouble tickets; uncorroborated ones are artifacts of lost messages
//      and are removed. (The paper removed ~6,000 spurious hours this way —
//      nearly twice the real downtime.)
#pragma once

#include <vector>

#include "src/analysis/failure.hpp"
#include "src/common/interval_set.hpp"
#include "src/config/census.hpp"
#include "src/tickets/tickets.hpp"

namespace netfail::analysis {

struct SanitizeOptions {
  Duration long_failure_threshold = Duration::hours(24);
  /// Minimum ticket/failure overlap fraction to accept a long failure.
  double ticket_overlap_fraction = 0.5;

  bool operator==(const SanitizeOptions&) const = default;
};

struct SanitizationReport {
  std::size_t removed_listener_gap = 0;
  std::size_t long_failures_checked = 0;
  std::size_t long_failures_confirmed = 0;
  std::size_t long_failures_removed = 0;
  Duration spurious_hours_removed;  // downtime of removed long failures
};

/// Remove failures overlapping listener downtime (applies to both sources).
SanitizationReport remove_listener_gap_failures(
    std::vector<Failure>& failures, const IntervalSet& listener_gaps);

/// The >24 h manual-verification step; syslog failures only.
SanitizationReport verify_long_failures(std::vector<Failure>& failures,
                                        const LinkCensus& census,
                                        const TicketStore& tickets,
                                        const SanitizeOptions& options = {});

}  // namespace netfail::analysis
