#include "src/detect/detector.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/metrics.hpp"
#include "src/syslog/message.hpp"

namespace netfail::detect {
namespace {

struct DetectMetrics {
  metrics::Counter& windows =
      metrics::global().counter("detect.windows_closed");
};

// Namespace-scope so the per-window path carries no static-init guard.
DetectMetrics g_detect_metrics;

int type_index(syslog::MessageType t) {
  switch (t) {
    case syslog::MessageType::kIsisAdjChange: return 0;
    case syslog::MessageType::kLinkUpDown: return 1;
    case syslog::MessageType::kLineProtoUpDown: return 2;
  }
  return 0;
}

int dir_index(LinkDirection d) { return d == LinkDirection::kDown ? 0 : 1; }

/// Decay windows with no observations: the EWMA sees `gap` zero-count
/// windows between updates. Beyond a handful the baseline is effectively
/// cold again, so skip the loop entirely.
double decay_baseline(double ewma, std::int64_t gap) {
  if (gap >= 16) return 0.0;
  for (std::int64_t i = 0; i < gap; ++i) ewma *= (1.0 - kDriftAlpha);
  return ewma;
}

}  // namespace

LinkDetector::LinkDetector(DetectorOptions options) : options_(options) {
  // The six template shapes the tokenizer can produce: message type x
  // direction. Interned here, once, so observe_syslog never interns.
  templates_[0][0] = Symbol("ADJCHANGE/down");
  templates_[0][1] = Symbol("ADJCHANGE/up");
  templates_[1][0] = Symbol("LINK/down");
  templates_[1][1] = Symbol("LINK/up");
  templates_[2][0] = Symbol("LINEPROTO/down");
  templates_[2][1] = Symbol("LINEPROTO/up");
}

void LinkDetector::observe_syslog(const syslog::SyslogTransition& tr,
                                  TimePoint arrival) {
  if (!options_.enabled) return;
  NETFAIL_ASSERT(!finished_, "observe_syslog after finish()");
  if (!tr.link.valid()) return;
  ++counters_.syslog_observed;

  // ---- template-frequency drift ---------------------------------------------
  const std::int64_t idx =
      arrival.unix_millis() / kDriftWindow.total_millis();
  if (idx != window_idx_) roll_window_to(idx);
  const std::uint64_t key =
      cell_key(tr.link, templates_[type_index(tr.type)][dir_index(tr.dir)]);
  DriftCell& cell = cells_[key];
  if (cell.count == 0) active_.push_back(key);
  ++cell.count;
  cell.last_event = tr.time;

  // ---- flap CUSUM over adjacency DOWN gaps ----------------------------------
  if (tr.cls == syslog::MessageClass::kIsisAdjacency &&
      tr.dir == LinkDirection::kDown) {
    observe_adjacency_down(tr.link, tr.time);
  }
}

void LinkDetector::observe_adjacency_down(LinkId link, TimePoint time) {
  LinkState& st = links_[link];
  if (st.has_last_down) {
    // Reordered timestamps (router clock skew) clamp to a zero gap — the
    // most surprising value, which is the right reading of two DOWNs with
    // inverted timestamps.
    const double gap_s = std::max(0.0, (time - st.last_down).seconds_f());
    if (st.mean_gap_s <= 0.0) {
      st.mean_gap_s = std::max(kBaselineFloor.seconds_f(),
                               std::min(gap_s, kGapCap.seconds_f()));
    } else {
      const double surprise = 1.0 - gap_s / st.mean_gap_s - kCusumDrift;
      st.cusum = std::max(0.0, st.cusum + surprise);
      if (st.cusum >= kCusumThreshold &&
          (!st.has_cusum_alert ||
           time - st.last_cusum_alert >= kAlertCooldown)) {
        sink_.emit({link, time, AlertKind::kFlapCusum, st.cusum, Symbol()});
        st.has_cusum_alert = true;
        st.last_cusum_alert = time;
        st.cusum = 0.0;  // re-arm
      }
      const double capped = std::min(gap_s, kGapCap.seconds_f());
      st.mean_gap_s =
          std::max(kBaselineFloor.seconds_f(),
                   (1.0 - kEwmaAlpha) * st.mean_gap_s +
                       kEwmaAlpha * capped);
    }
  }
  st.has_last_down = true;
  st.last_down = time;
}

void LinkDetector::observe_isis(LinkId link, TimePoint time,
                                LinkDirection dir) {
  if (!options_.enabled) return;
  NETFAIL_ASSERT(!finished_, "observe_isis after finish()");
  ++counters_.isis_observed;
  if (dir != LinkDirection::kDown) return;
  LinkState& st = links_[link];
  if (st.has_hard_alert && time - st.last_hard_alert < kAlertCooldown) {
    return;
  }
  sink_.emit({link, time, AlertKind::kHardDown, 0.0, Symbol()});
  st.has_hard_alert = true;
  st.last_hard_alert = time;
}

void LinkDetector::roll_window_to(std::int64_t idx) {
  if (window_idx_ >= 0) close_window();
  window_idx_ = idx;
}

void LinkDetector::close_window() {
  ++counters_.windows_closed;
  g_detect_metrics.windows.inc();
  scratch_.clear();
  for (const std::uint64_t key : active_) {
    DriftCell& cell = cells_.find(key)->second;
    // Lazily account for the zero-count windows since this key last fired.
    const std::int64_t gap = window_idx_ - cell.ewma_window - 1;
    if (gap > 0) {
      cell.ewma = decay_baseline(cell.ewma, gap);
    }
    const double ratio = static_cast<double>(cell.count) / (cell.ewma + 1.0);
    if (cell.count >= kDriftMinCount && ratio >= kDriftRatio) {
      scratch_.push_back({LinkId(static_cast<std::uint32_t>(key >> 32)),
                          Symbol::from_id(static_cast<std::uint32_t>(key)),
                          cell.last_event, ratio});
    }
    cell.ewma = (1.0 - kDriftAlpha) * cell.ewma +
                kDriftAlpha * static_cast<double>(cell.count);
    cell.ewma_window = window_idx_;
    cell.count = 0;
  }
  // `active_` follows arrival order, which can vary with the transport;
  // canonicalize before emission so the alert stream is byte-identical run
  // to run.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.link != b.link) return a.link < b.link;
              return sym::lex_less(a.tmpl, b.tmpl);
            });
  for (const Candidate& c : scratch_) {
    sink_.emit({c.link, c.time, AlertKind::kTemplateDrift, c.ratio, c.tmpl});
  }
  active_.clear();
}

void LinkDetector::finish() {
  if (finished_) return;
  if (options_.enabled && window_idx_ >= 0) close_window();
  finished_ = true;
}

}  // namespace netfail::detect
