#include "src/analysis/availability.hpp"

#include <algorithm>
#include <cmath>

#include "src/analysis/dense_links.hpp"

namespace netfail::analysis {

double LinkAvailability::availability() const {
  if (lifetime.is_zero()) return 1.0;
  const double up = 1.0 - downtime.seconds_f() / lifetime.seconds_f();
  return std::clamp(up, 0.0, 1.0);
}

Duration LinkAvailability::mtbf() const {
  if (failure_count == 0) return lifetime;
  return Duration::from_seconds_f(lifetime.seconds_f() /
                                  static_cast<double>(failure_count));
}

Duration LinkAvailability::mttr() const {
  if (failure_count == 0) return Duration{};
  return Duration::from_seconds_f(downtime.seconds_f() /
                                  static_cast<double>(failure_count));
}

double LinkAvailability::nines() const {
  const double a = availability();
  if (a >= 1.0) return 9.0;  // never observed down; cap the rendering
  if (a <= 0.0) return 0.0;
  return -std::log10(1.0 - a);
}

AvailabilityReport compute_availability(const std::vector<Failure>& failures,
                                        const LinkCensus& census,
                                        TimeRange period) {
  AvailabilityReport report;
  const LinkDowntime downtime(failures);

  double lifetime_total = 0;
  double downtime_total = 0;
  for (const CensusLink& link : census.links()) {
    if (link.multilink) continue;
    const TimeRange life{std::max(link.lifetime.begin, period.begin),
                         std::min(link.lifetime.end, period.end)};
    if (life.empty()) continue;

    LinkAvailability a;
    a.link = link.id;
    a.name = link.name;
    a.cls = link.cls;
    a.lifetime = life.duration();
    const std::size_t slot = downtime.slots().of(link.id);
    if (slot < downtime.slots().size()) {
      a.downtime = downtime.at(slot).measure_within(life);
      a.failure_count = downtime.failures(slot);
    }
    lifetime_total += a.lifetime.seconds_f();
    downtime_total += a.downtime.seconds_f();
    report.links.push_back(std::move(a));
  }

  std::sort(report.links.begin(), report.links.end(),
            [](const LinkAvailability& x, const LinkAvailability& y) {
              return x.availability() < y.availability();
            });
  report.total_downtime = Duration::from_seconds_f(downtime_total);
  report.network_availability =
      lifetime_total > 0 ? 1.0 - downtime_total / lifetime_total : 1.0;
  return report;
}

}  // namespace netfail::analysis
