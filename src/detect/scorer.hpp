// detect::Scorer — precision / recall / lead-time of the online alert
// stream against the simulator's injected ground truth.
//
// Join semantics (DESIGN.md §12):
//
//   - An alert is MATCHED when any injected incident on its link (any
//     class, pseudo-failures and media blips included — the wire event did
//     happen) has a window [onset - kLeadWindow, recovery + kGrace]
//     containing the alert time. Precision = matched / total alerts.
//
//   - The recall denominator is the HARD failures only (media + protocol,
//     non-empty adjacency_down). A hard failure is DETECTED when any alert
//     on its link falls in its window; the lead time of a detection is
//     recovery - first alert (how far ahead of the batch pipeline, which
//     confirms a failure only at the closing UP). Failures whose adjacency
//     outage overlaps a listener gap are excluded from the denominator
//     (the IS-IS stream is blind there), mirroring the batch sanitizer's
//     remove_listener_gap_failures step.
//
//   - Ground truth names links by topology id; alerts carry census link
//     ids. The join goes through the canonical link name, exactly like the
//     ticket store.
//
// The report is plain numbers; analysis::render_detection_scores() renders
// the table. Scoring is deterministic: same alert stream, same report,
// byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "src/config/census.hpp"
#include "src/detect/alert.hpp"
#include "src/sim/ground_truth.hpp"
#include "src/tickets/tickets.hpp"

namespace netfail::detect {

/// An alert may precede the failure onset by up to this much and still
/// count (early warning from flap/drift detectors).
inline constexpr Duration kLeadWindow = Duration::minutes(15);
/// An alert may trail the recovery by up to this much (post-recovery
/// resets, window-close drift alerts).
inline constexpr Duration kGrace = Duration::seconds(60);

/// considered/detected pair for one slice of the failure population.
struct SliceScore {
  std::uint64_t considered = 0;
  std::uint64_t detected = 0;
};

struct ScoreReport {
  // Alert side.
  std::uint64_t alerts_total = 0;
  std::uint64_t alerts_matched = 0;
  std::uint64_t alerts_hard_down = 0;
  std::uint64_t alerts_flap_cusum = 0;
  std::uint64_t alerts_template_drift = 0;

  // Failure side (hard failures only).
  std::uint64_t failures_considered = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t failures_excluded = 0;   // listener-gap overlap
  std::uint64_t unresolved_links = 0;    // truth link name absent from census

  SliceScore media;      // FailureClass::kMediaFailure
  SliceScore protocol;   // FailureClass::kProtocolFailure
  SliceScore flapping;   // in_flap_episode
  SliceScore ticketed;   // ticketed long outages
  /// Detected ticketed failures whose outage the ticket store corroborates.
  std::uint64_t tickets_corroborated = 0;

  // Lead time over detected failures: recovery - first matching alert,
  // clamped at zero.
  Duration lead_total;
  Duration lead_median;
  std::uint64_t lead_samples = 0;

  double precision() const {
    return alerts_total == 0
               ? 1.0
               : static_cast<double>(alerts_matched) /
                     static_cast<double>(alerts_total);
  }
  double recall() const {
    return failures_considered == 0
               ? 1.0
               : static_cast<double>(failures_detected) /
                     static_cast<double>(failures_considered);
  }
  Duration lead_mean() const {
    return lead_samples == 0
               ? Duration::millis(0)
               : Duration::millis(lead_total.total_millis() /
                                  static_cast<std::int64_t>(lead_samples));
  }
};

ScoreReport score_alerts(const std::vector<LinkAlert>& alerts,
                         const sim::GroundTruth& truth,
                         const LinkCensus& census, const TicketStore& tickets);

}  // namespace netfail::detect
