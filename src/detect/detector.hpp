// detect::LinkDetector — the online anomaly detection stage of the stream
// engine (ROADMAP item 4; cf. "Finding Needles in the Haystack" for the
// template-frequency idea).
//
// Three detectors run per link, all O(1) state per (link, template) and
// strictly deterministic (simulated clocks only, no ambient entropy — the
// repo linter's determinism roster covers src/detect):
//
//   hard-down     An IS-IS adjacency DOWN transition is near-unambiguous
//                 evidence of a real failure (the paper's premise); alert
//                 immediately, rate-limited per link by `kAlertCooldown`.
//
//   flap-cusum    A one-sided CUSUM over syslog adjacency-DOWN inter-
//                 arrival gaps: each gap contributes 1 - gap/mean - k
//                 (positive when gaps run shorter than the EWMA mean), the
//                 statistic clamps at zero and alerts on crossing
//                 `kCusumThreshold`. Catches anomalous failure clustering —
//                 including during listener gaps, when the IS-IS stream is
//                 blind.
//
//   template-drift  Per-(link, template) message counts over tumbling
//                 `kDriftWindow`s of arrival time, where a template is the
//                 shape of the tokenized syslog message (type x direction),
//                 interned once via netfail::sym at construction. A window
//                 count far above its EWMA baseline flags message-pattern
//                 drift. Counts live in u64-keyed maps (lint: no string
//                 keys on hot paths); window-close candidates are sorted by
//                 (link, lexicographic template) so the alert stream is
//                 byte-identical run to run.
//
// All alerts land in the AlertSink, which the StreamEngine checkpoint
// deep-copies along with the detector state.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/common/sym.hpp"
#include "src/common/time.hpp"
#include "src/detect/alert.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::svc {
class EngineCodec;  // durable snapshot serializer (src/svc)
}  // namespace netfail::svc

namespace netfail::detect {

// The detectors' parameters: fixed, like the paper's own windows.

// -- hard-down (IS-IS) ---------------------------------------------------------
/// Minimum spacing between same-kind alerts on one link.
inline constexpr Duration kAlertCooldown = Duration::minutes(5);

// -- flap-cusum (syslog adjacency DOWNs) ---------------------------------------
/// EWMA weight for the per-link mean inter-DOWN gap.
inline constexpr double kEwmaAlpha = 0.3;
/// Alert when the CUSUM statistic reaches this value.
inline constexpr double kCusumThreshold = 3.0;
/// Per-observation slack (the classic CUSUM drift term k): gaps must be at
/// least this fraction shorter than the mean to accumulate.
inline constexpr double kCusumDrift = 0.25;
/// The EWMA mean gap never falls below this (a burst must still beat a sane
/// floor) and single huge gaps feed in capped at kGapCap.
inline constexpr Duration kBaselineFloor = Duration::seconds(30);
inline constexpr Duration kGapCap = Duration::hours(6);

// -- template-frequency drift (all tracked syslog templates) -------------------
/// Tumbling window length, on arrival time.
inline constexpr Duration kDriftWindow = Duration::minutes(10);
/// A window fires when count >= kDriftMinCount and
/// count >= kDriftRatio * (baseline + 1).
inline constexpr double kDriftRatio = 4.0;
inline constexpr std::uint32_t kDriftMinCount = 6;
/// EWMA weight for the per-(link, template) baseline window count.
inline constexpr double kDriftAlpha = 0.2;

struct DetectorOptions {
  /// Off by default: the engine constructs the detector unconditionally and
  /// every observe_*() is a single branch when disabled.
  bool enabled = false;
};

struct DetectorCounters {
  std::uint64_t syslog_observed = 0;
  std::uint64_t isis_observed = 0;
  std::uint64_t windows_closed = 0;
};

class LinkDetector {
 public:
  explicit LinkDetector(DetectorOptions options = {});

  // Copyable by design: a stream Checkpoint is a copy of the detector.

  bool enabled() const { return options_.enabled; }

  /// Every syslog transition the extractor resolves (adjacency AND media
  /// classes — the drift detector counts all tracked templates; the CUSUM
  /// uses only adjacency DOWNs). `arrival` must be nondecreasing across
  /// calls (EventMux order); it drives the drift windows.
  void observe_syslog(const syslog::SyslogTransition& tr, TimePoint arrival);

  /// Every link-resolved IS-IS IS-reach transition (the engine's tracker
  /// filter).
  void observe_isis(LinkId link, TimePoint time, LinkDirection dir);

  /// End of stream: close the final drift window. Idempotent.
  void finish();

  AlertSink& sink() { return sink_; }
  const AlertSink& sink() const { return sink_; }
  std::uint64_t alerts_emitted() const { return sink_.size(); }
  const DetectorCounters& counters() const { return counters_; }

 private:
  friend class netfail::svc::EngineCodec;

  struct LinkState {
    bool has_last_down = false;
    TimePoint last_down;
    double mean_gap_s = 0.0;  // 0 = not yet initialized
    double cusum = 0.0;
    bool has_hard_alert = false;
    TimePoint last_hard_alert;
    bool has_cusum_alert = false;
    TimePoint last_cusum_alert;
  };

  /// Per-(link, template) drift state. Cells persist across windows — the
  /// current window resets `count` in place rather than rebuilding a map,
  /// so the steady path allocates only on the first sighting of a pair.
  struct DriftCell {
    std::uint32_t count = 0;   // in the currently open window
    TimePoint last_event;      // message time of the newest contribution
    double ewma = 0.0;         // baseline window count
    std::int64_t ewma_window = 0;  // window the EWMA was last updated in
  };

  void observe_adjacency_down(LinkId link, TimePoint time);
  void roll_window_to(std::int64_t idx);
  void close_window();

  static std::uint64_t cell_key(LinkId link, Symbol tmpl) {
    return (static_cast<std::uint64_t>(link.value()) << 32) | tmpl.value();
  }

  DetectorOptions options_;
  DetectorCounters counters_;
  AlertSink sink_;
  /// Template symbols by (MessageType, LinkDirection), interned once here
  /// so the per-event path never touches the intern table.
  Symbol templates_[3][2];
  std::unordered_map<LinkId, LinkState> links_;
  std::unordered_map<std::uint64_t, DriftCell> cells_;
  /// Keys with a nonzero count in the open window (insertion order); lets
  /// close_window() touch only active cells and never reallocate.
  std::vector<std::uint64_t> active_;
  std::int64_t window_idx_ = -1;  // -1 = no window open yet
  /// Window-close candidates, reused across windows.
  struct Candidate {
    LinkId link;
    Symbol tmpl;
    TimePoint time;
    double ratio = 0.0;
  };
  std::vector<Candidate> scratch_;
  bool finished_ = false;
};

}  // namespace netfail::detect
