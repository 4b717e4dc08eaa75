#include "src/analysis/linkstats.hpp"

#include <algorithm>
#include <span>

#include "src/analysis/dense_links.hpp"

namespace netfail::analysis {
namespace {

constexpr double kHoursPerYear = 365.25 * 24.0;

}  // namespace

LinkStatistics compute_link_statistics(const std::vector<Failure>& failures,
                                       const LinkCensus& census,
                                       TimeRange period) {
  LinkStatistics out;
  // Each link's failures, sorted by begin.
  const LinkSlots slots = LinkSlots::covering(
      failures.size(), [&](std::size_t i) { return failures[i].link; });
  Buckets<Failure> by_link(
      slots.size(), failures.size(),
      [&](std::size_t i) { return slots.of(failures[i].link); },
      [&](std::size_t i) { return failures[i]; });
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::span<Failure> v = by_link[s];
    std::sort(v.begin(), v.end(), [](const Failure& a, const Failure& b) {
      return a.span.begin < b.span.begin;
    });
  }

  for (const CensusLink& link : census.links()) {
    if (link.multilink) continue;
    MetricSamples& samples =
        link.cls == RouterClass::kCore ? out.core : out.cpe;

    // Lifetime within the study period, in years.
    const TimeRange life{std::max(link.lifetime.begin, period.begin),
                         std::min(link.lifetime.end, period.end)};
    if (life.empty()) continue;
    const double years = life.duration().hours_f() / kHoursPerYear;
    if (years <= 0) continue;

    const std::span<const Failure> fs = by_link[slots.of(link.id)];
    if (fs.empty()) {
      samples.failures_per_year.push_back(0);
      samples.downtime_hours_per_year.push_back(0);
      continue;
    }

    samples.failures_per_year.push_back(static_cast<double>(fs.size()) / years);

    IntervalSet downtime;
    for (const Failure& f : fs) {
      samples.duration_s.push_back(f.duration().seconds_f());
      downtime.add(f.span);
    }
    samples.downtime_hours_per_year.push_back(downtime.total().hours_f() /
                                              years);

    for (std::size_t k = 1; k < fs.size(); ++k) {
      const Duration gap = fs[k].span.begin - fs[k - 1].span.end;
      if (!gap.is_negative()) samples.tbf_hours.push_back(gap.hours_f());
    }
  }

  auto summarize_all = [](const MetricSamples& s) {
    MetricSummaries m;
    m.failures_per_year = stats::summarize(s.failures_per_year);
    m.duration_s = stats::summarize(s.duration_s);
    m.tbf_hours = stats::summarize(s.tbf_hours);
    m.downtime_hours_per_year = stats::summarize(s.downtime_hours_per_year);
    return m;
  };
  out.core_summary = summarize_all(out.core);
  out.cpe_summary = summarize_all(out.cpe);
  return out;
}

}  // namespace netfail::analysis
