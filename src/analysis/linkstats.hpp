// Per-link failure statistics (paper Table 5 and Figure 1): annualized
// failures per link, failure duration, time between failures, annualized
// link downtime — each summarized by median / average / 95th percentile,
// split Core vs CPE.
#pragma once

#include <vector>

#include "src/analysis/failure.hpp"
#include "src/config/census.hpp"
#include "src/stats/summary.hpp"

namespace netfail::analysis {

/// Raw sample vectors for one (source, router-class) cell; also feed the
/// Figure 1 CDFs and the KS tests.
struct MetricSamples {
  std::vector<double> failures_per_year;   // one per link
  std::vector<double> duration_s;          // one per failure
  std::vector<double> tbf_hours;           // one per consecutive gap
  std::vector<double> downtime_hours_per_year;  // one per link
};

struct MetricSummaries {
  stats::Summary failures_per_year;
  stats::Summary duration_s;
  stats::Summary tbf_hours;
  stats::Summary downtime_hours_per_year;
};

struct LinkStatistics {
  MetricSamples core;
  MetricSamples cpe;
  MetricSummaries core_summary;
  MetricSummaries cpe_summary;
};

/// Multi-link members are excluded, as the paper does (sect. 3.4). Links
/// that never failed contribute zeros to the per-link metrics: the paper
/// normalizes per link lifetime, implying all links.
LinkStatistics compute_link_statistics(const std::vector<Failure>& failures,
                                       const LinkCensus& census,
                                       TimeRange period);

}  // namespace netfail::analysis
