#include "src/analysis/failure.hpp"

namespace netfail::analysis {

std::map<LinkId, IntervalSet> downtime_by_link(const std::vector<Failure>& fs) {
  std::map<LinkId, IntervalSet> out;
  for (const Failure& f : fs) out[f.link].add(f.span);
  return out;
}

Duration total_downtime(const std::vector<Failure>& fs) {
  Duration total;
  for (const auto& [link, set] : downtime_by_link(fs)) total += set.total();
  return total;
}

}  // namespace netfail::analysis
