#include "src/analysis/failure.hpp"

#include "src/analysis/dense_links.hpp"

namespace netfail::analysis {

Duration total_downtime(const std::vector<Failure>& fs) {
  const LinkDowntime downtime(fs);
  Duration total;
  for (std::size_t s = 0; s < downtime.slots().size(); ++s) {
    total += downtime.at(s).total();
  }
  return total;
}

}  // namespace netfail::analysis
