#include "src/detect/scorer.hpp"

#include <algorithm>
#include <unordered_map>

namespace netfail::detect {
namespace {

/// Per-link alert index: times sorted ascending, parallel matched flags
/// shared with the caller's flag vector via indices.
struct LinkAlerts {
  std::vector<std::size_t> order;  // indices into `alerts`, sorted by time
};

/// First alert index (into `alerts`) with time in [begin, end], or npos.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

ScoreReport score_alerts(const std::vector<LinkAlert>& alerts,
                         const sim::GroundTruth& truth,
                         const LinkCensus& census, const TicketStore& tickets) {
  ScoreReport r;
  r.alerts_total = alerts.size();

  std::unordered_map<LinkId, LinkAlerts> by_link;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    switch (alerts[i].kind) {
      case AlertKind::kHardDown: ++r.alerts_hard_down; break;
      case AlertKind::kFlapCusum: ++r.alerts_flap_cusum; break;
      case AlertKind::kTemplateDrift: ++r.alerts_template_drift; break;
    }
    by_link[alerts[i].link].order.push_back(i);
  }
  for (auto& [link, la] : by_link) {
    std::sort(la.order.begin(), la.order.end(),
              [&](std::size_t a, std::size_t b) {
                if (alerts[a].time != alerts[b].time) {
                  return alerts[a].time < alerts[b].time;
                }
                return a < b;  // emission order for equal times
              });
  }
  std::vector<bool> matched(alerts.size(), false);

  /// Mark every alert on `link` inside [begin, end] matched; return the
  /// earliest one's time via `first` (kNone when none).
  const auto match_window = [&](LinkId link, TimePoint begin, TimePoint end,
                                std::size_t& first) {
    first = kNone;
    const auto it = by_link.find(link);
    if (it == by_link.end()) return;
    const std::vector<std::size_t>& order = it->second.order;
    // Binary search the first alert at or after `begin`.
    std::size_t lo = 0, hi = order.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (alerts[order[mid]].time < begin) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (std::size_t i = lo; i < order.size(); ++i) {
      const std::size_t idx = order[i];
      if (alerts[idx].time > end) break;
      matched[idx] = true;
      if (first == kNone) first = idx;
    }
  };

  std::vector<Duration> leads;
  for (const sim::TrueFailure& f : truth.failures()) {
    const TimeRange span =
        f.adjacency_down.empty() ? f.media_down : f.adjacency_down;
    if (span.empty()) continue;  // clamped out of the study period
    const std::optional<LinkId> link = census.find_by_name(f.link_name);
    if (!link) {
      ++r.unresolved_links;
      continue;
    }
    std::size_t first = kNone;
    match_window(*link, span.begin - kLeadWindow, span.end + kGrace, first);

    // Recall side: hard failures only.
    const bool hard = (f.cls == sim::FailureClass::kMediaFailure ||
                       f.cls == sim::FailureClass::kProtocolFailure) &&
                      !f.adjacency_down.empty();
    if (!hard) continue;
    if (truth.listener_gaps().overlaps(f.adjacency_down)) {
      ++r.failures_excluded;
      continue;
    }
    ++r.failures_considered;
    const bool detected = first != kNone;
    if (detected) ++r.failures_detected;

    const auto slice = [&](SliceScore& s) {
      ++s.considered;
      if (detected) ++s.detected;
    };
    if (f.cls == sim::FailureClass::kMediaFailure) slice(r.media);
    if (f.cls == sim::FailureClass::kProtocolFailure) slice(r.protocol);
    if (f.in_flap_episode) slice(r.flapping);
    if (f.ticketed) {
      slice(r.ticketed);
      if (detected && tickets.corroborates(f.link_name, f.adjacency_down)) {
        ++r.tickets_corroborated;
      }
    }
    if (detected) {
      const Duration lead =
          std::max(Duration::millis(0), span.end - alerts[first].time);
      leads.push_back(lead);
      r.lead_total += lead;
    }
  }
  r.lead_samples = leads.size();
  if (!leads.empty()) {
    std::sort(leads.begin(), leads.end());
    r.lead_median = leads[leads.size() / 2];
  }
  for (const bool m : matched) {
    if (m) ++r.alerts_matched;
  }
  return r;
}

}  // namespace netfail::detect
