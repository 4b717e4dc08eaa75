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

/// Syslog failures at least this long are checked against the tickets.
inline constexpr Duration kLongFailure = Duration::hours(24);
/// A ticket must overlap at least this fraction of a long failure to
/// confirm it.
inline constexpr double kTicketOverlapFraction = 0.5;

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
                                        const TicketStore& tickets);

}  // namespace netfail::analysis
