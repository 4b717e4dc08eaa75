// Operator-facing availability metrics derived from a failure
// reconstruction: per-link availability (the "nines"), MTBF and MTTR.
//
// The paper's motivation (sect. 1/3): operators track reliability through
// exactly these aggregates, and syslog is usually the only source they
// have. This module computes them from either source so the two views can
// be compared at the metric level operators actually report.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/failure.hpp"
#include "src/config/census.hpp"

namespace netfail::analysis {

struct LinkAvailability {
  LinkId link;
  std::string name;
  RouterClass cls = RouterClass::kCore;
  Duration lifetime;       // link lifetime within the study period
  Duration downtime;
  std::size_t failure_count = 0;

  /// Fraction of lifetime the link was up, in [0, 1].
  double availability() const;
  /// Mean time between failures; lifetime when the link never failed.
  Duration mtbf() const;
  /// Mean time to repair; zero when the link never failed.
  Duration mttr() const;
  /// "Nines" rendering: 0.99953 -> "3.3 nines".
  double nines() const;
};

struct AvailabilityReport {
  std::vector<LinkAvailability> links;  // sorted worst availability first

  /// Network-wide availability: downtime-weighted across link lifetimes.
  double network_availability = 1.0;
  Duration total_downtime;
};

/// Multi-link members are left out, as everywhere in the paper (sect. 3.4).
AvailabilityReport compute_availability(const std::vector<Failure>& failures,
                                        const LinkCensus& census,
                                        TimeRange period);

}  // namespace netfail::analysis
