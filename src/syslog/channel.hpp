// The lossy path from a router's syslog process to the central collector.
//
// Syslog rides UDP from a low-priority process (paper sect. 3.3), so
// delivery "is far from certain". Three loss mechanisms matter for the
// paper's findings and all are modeled here:
//   1. independent base loss — any message can vanish (network drops);
//   2. drop runs — when a router emits a burst (link flapping), its syslog
//      queue overflows and a *contiguous run* of messages is lost, not an
//      independent sample. Run loss is what makes whole transitions vanish
//      (paper Table 3: 15-18% of transitions have no message at all, two
//      thirds of them during flapping) while keeping nonsensical interleaved
//      sequences rare (Table 6: only ~460 double messages in 13 months);
//   3. blackouts — per-router periods where no message escapes at all
//      (logging misconfiguration); these produce the multi-day false
//      failures the paper had to verify manually (sect. 4.2).
#pragma once

#include <deque>
#include <string>
#include <unordered_map>

#include "src/common/interval_set.hpp"
#include "src/common/rng.hpp"
#include "src/common/sym.hpp"
#include "src/common/time.hpp"

namespace netfail::syslog {

struct ChannelParams {
  /// Independent loss probability for any single message.
  double base_loss = 0.13;
  /// Probability of entering a drop run, per recent message from the same
  /// reporter within `burst_window` (queue-overflow onset).
  double run_onset_per_message = 0.04;
  double max_run_onset = 0.9;
  Duration burst_window = Duration::seconds(20);
  /// Drop runs last Exponential(run_mean).
  Duration run_mean = Duration::seconds(25);

  bool operator==(const ChannelParams&) const = default;
};

class LossyChannel {
 public:
  LossyChannel(ChannelParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Declare a per-router blackout window: everything sent inside is lost.
  void add_blackout(Symbol reporter, TimeRange window);
  const IntervalSet* blackouts_of(Symbol reporter) const;

  /// Additional independent loss for one reporter (some routers simply log
  /// worse — small CPE boxes with busy CPUs).
  void set_extra_loss(Symbol reporter, double p);

  /// Decide whether the message a `reporter` sends at `t` survives the trip.
  /// Must be called in nondecreasing time order per reporter.
  bool transmit(Symbol reporter, TimePoint t);

  /// Probability that the next message from `reporter` at `t` would start a
  /// drop run (excluding base loss and an already-active run); exposed for
  /// tests and diagnostics.
  double current_run_onset(Symbol reporter, TimePoint t);
  /// True when the reporter is inside an active drop run at `t`.
  bool in_drop_run(Symbol reporter, TimePoint t) const;

  std::size_t sent_count() const { return sent_; }
  std::size_t lost_count() const { return lost_; }

 private:
  struct ReporterState {
    std::deque<TimePoint> recent;
    TimePoint run_until;  // drop run active while t < run_until
    double extra_loss = 0.0;
  };

  void age_out(ReporterState& state, TimePoint t);

  ChannelParams params_;
  Rng rng_;
  std::unordered_map<Symbol, ReporterState> state_;
  std::unordered_map<Symbol, IntervalSet> blackouts_;
  std::size_t sent_ = 0;
  std::size_t lost_ = 0;
};

}  // namespace netfail::syslog
