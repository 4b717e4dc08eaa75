// Scenario parameters: every stochastic knob of the synthetic CENIC study.
//
// The defaults are calibrated so the paper's tables re-emerge in shape (see
// EXPERIMENTS.md for the side-by-side numbers). All quantities are plain
// data so tests and ablation benchmarks can perturb one knob at a time.
#pragma once

#include <cstdint>

#include "src/common/time.hpp"
#include "src/syslog/channel.hpp"
#include "src/topology/generator.hpp"

namespace netfail::sim {

/// Parameters of a two-component lognormal mixture used for failure
/// durations: a body of short failures plus a heavy tail of long outages.
struct DurationMixture {
  double body_median_s = 30;   // median of the short component (seconds)
  double body_sigma = 1.0;     // log-std of the short component
  double tail_prob = 0.05;     // probability a failure is a long outage
  double tail_median_s = 3600;
  double tail_sigma = 1.4;
  double min_s = 1.0;          // floor

  bool operator==(const DurationMixture&) const = default;
};

struct ScenarioParams {
  TimeRange period{TimePoint::from_civil(2010, 10, 20),
                   TimePoint::from_civil(2011, 11, 11)};
  std::uint64_t seed = 0xCE41C;

  TopologyParams topology;

  // ---- ground-truth failure processes --------------------------------------
  // Per-link annual arrival rates are lognormal across links (some links are
  // simply much worse than others, which creates Table 5's median-vs-95%
  // spread).
  double core_rate_median = 3.6;   // arrivals / link / year
  double core_rate_sigma = 1.05;
  double cpe_rate_median = 8.5;
  double cpe_rate_sigma = 1.0;

  // An arrival becomes a flapping episode with this probability; the episode
  // has 2 + geometric(extra * link flappiness) failures separated by short
  // gaps. Flappiness is lognormal across links: the worst links owe their
  // failure counts to big episodes, not to frequent isolated failures —
  // which reproduces the paper's bimodal time-between-failures shape
  // (median 0.01-0.2 h vs mean 116-343 h, Table 5).
  double core_flap_episode_prob = 0.115;
  double cpe_flap_episode_prob = 0.18;
  double flap_extra_mean = 3.5;
  double flap_size_sigma = 1.4;
  Duration flap_gap_min = Duration::seconds(2);
  Duration flap_gap_median = Duration::seconds(25);
  double flap_gap_sigma = 1.2;
  /// Failures inside a flap episode are short.
  DurationMixture flap_duration{.body_median_s = 6,
                                .body_sigma = 1.3,
                                .tail_prob = 0.04,
                                .tail_median_s = 2000,
                                .tail_sigma = 1.3,
                                .min_s = 1.0};

  DurationMixture core_duration{.body_median_s = 170,
                                .body_sigma = 1.3,
                                .tail_prob = 0.09,
                                .tail_median_s = 4500,
                                .tail_sigma = 1.5,
                                .min_s = 1.0};
  DurationMixture cpe_duration{.body_median_s = 30,
                               .body_sigma = 1.0,
                               .tail_prob = 0.15,
                               .tail_median_s = 5200,
                               .tail_sigma = 1.3,
                               .min_s = 1.0};

  /// Fraction of adjacency-dropping failures caused by physical media loss
  /// (the rest are protocol-level: the media stays up, IP reachability is
  /// unaffected — paper sect. 3.4's IS-vs-IP asymmetry).
  double media_failure_prob = 0.25;

  /// Separate arrival process for short media blips that do NOT drop the
  /// adjacency (carrier bounce inside the hold time): per link per year.
  double blip_rate_per_year = 13.0;
  double blip_median_s = 1.8;
  double blip_sigma = 0.9;
  double blip_max_s = 20.0;
  /// Cisco carrier-delay: media bounces shorter than this are logged by
  /// syslog (%LINK-3-UPDOWN) but never notify the routing layer, so the /31
  /// stays advertised — one reason physical-media messages match IP
  /// reachability only ~half the time (paper Table 2).
  Duration carrier_delay = Duration::seconds(2);

  /// Links that are a customer's *sole* uplink are quieter than average:
  /// operators dual-home chronically flappy sites, so the remaining
  /// single-homed uplinks are the stable ones. Keeps Table 7's isolating
  /// event count in the paper's regime.
  double sole_uplink_rate_factor = 0.8;
  double sole_uplink_flap_factor = 0.45;

  // ---- correlated site outages ------------------------------------------------
  /// Facility-level failures (power, conduit) that take down all of a
  /// multi-homed customer's uplinks simultaneously — what isolates redundant
  /// sites in Table 7. Per multi-homed customer per year.
  double site_outage_rate_per_year = 0.75;
  Duration site_outage_median = Duration::minutes(22);
  double site_outage_sigma = 1.1;

  // ---- pseudo-failures (syslog-only, invisible to the listener) -------------
  /// After a real failure recovers, the adjacency sometimes resets without a
  /// new LSP (paper sect. 4.3); syslog logs a sub-second Down/Up pair.
  double reset_after_failure_prob = 0.10;
  /// Aborted three-way handshakes during flap episodes, per episode.
  double handshake_abort_prob = 0.25;

  // ---- spurious retransmissions ---------------------------------------------
  /// A router re-announces "Down" mid-failure with this probability for
  /// failures longer than spurious_min_duration (99% of spurious downs in
  /// the paper re-report the current failure).
  double spurious_down_prob = 0.12;
  /// Most spurious downs are prompt re-announcements (lognormal around a
  /// minute after the original); the rest land anywhere in the failure.
  double spurious_down_early_prob = 0.25;
  Duration spurious_min_duration = Duration::seconds(90);
  /// Rare spontaneous "Up" re-announcements, per link per year.
  double spurious_up_rate_per_year = 0.12;

  // ---- IS-IS timing ----------------------------------------------------------
  Duration lsp_min_interval = Duration::seconds(5);   // generation throttle
  Duration lsp_refresh_interval = Duration::minutes(12);
  Duration flood_delay_min = Duration::millis(40);
  Duration flood_delay_max = Duration::millis(400);
  Duration adjacency_detect_max = Duration::millis(1500);
  /// Three-way handshake time after media restoration.
  Duration handshake_min = Duration::seconds(2);
  Duration handshake_max = Duration::seconds(10);

  // ---- syslog path ------------------------------------------------------------
  // Loss is moderate for isolated messages but *correlated* in bursts: the
  // paper's Table 6 (only ~460 double messages in 13 months) implies few
  // interleaved received/lost patterns, while Table 3 (15-18% of transitions
  // fully unreported, two thirds during flapping) implies whole runs of
  // messages vanishing together — queue overflow, not independent drops.
  syslog::ChannelParams channel{.base_loss = 0.12,
                                .run_onset_per_message = 0.05,
                                .max_run_onset = 0.9,
                                .burst_window = Duration::seconds(20),
                                .run_mean = Duration::seconds(60)};
  /// Extra independent message loss for CPE routers (small boxes, busy
  /// CPUs, long last-mile paths to the collector). Skews misses toward the
  /// CPE links that carry most downtime — part of why the paper's syslog
  /// undercounts downtime by ~25%.
  double cpe_extra_loss = 0.10;
  Duration syslog_net_delay_max = Duration::millis(80);
  /// Static per-router clock skew bound (timestamps vs true time).
  Duration clock_skew_max = Duration::seconds(2);
  /// Routers that suffer long logging blackouts (source of the multi-day
  /// false failures of sect. 4.2).
  int blackout_router_count = 10;
  Duration blackout_median = Duration::days(4);
  double blackout_sigma = 0.8;

  // ---- listener ---------------------------------------------------------------
  int listener_gap_count = 3;
  Duration listener_gap_median = Duration::hours(20);
  double listener_gap_sigma = 0.7;

  // ---- tickets ----------------------------------------------------------------
  /// Outages at least this long are reliably documented by operators.
  Duration ticket_threshold = Duration::hours(12);
  /// Fraction of ticketed (maintenance-scale) outages during which the
  /// affected routers emit no syslog at all — depowered hardware and
  /// maintenance procedures do not log, but the IGP still records the
  /// withdrawal. Drives the paper's IS-IS-only downtime share.
  double maintenance_silent_prob = 0.25;

  bool operator==(const ScenarioParams&) const = default;
};

/// The calibrated 13-month CENIC-scale scenario used by all benchmarks.
ScenarioParams cenic_scenario();

/// A small, fast scenario for unit/integration tests (a few weeks, scaled
/// topology).
ScenarioParams test_scenario(std::uint64_t seed = 7);

}  // namespace netfail::sim
