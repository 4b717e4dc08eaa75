// Failure: the central analysis object — one DOWN..UP episode on one link.
#pragma once

#include <string>
#include <vector>

#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/common/interval_set.hpp"
#include "src/common/time.hpp"

namespace netfail::analysis {

/// Which observation stream a failure was reconstructed from.
enum class Source { kSyslog, kIsis };

inline const char* source_name(Source s) {
  return s == Source::kSyslog ? "Syslog" : "IS-IS";
}

struct Failure {
  LinkId link;  // census link id
  TimeRange span;
  Source source = Source::kIsis;
  /// True when this failure is part of a flapping episode (two or more
  /// consecutive failures on the link separated by < 10 minutes, sect. 4.1).
  bool in_flap_episode = false;

  Duration duration() const { return span.duration(); }
};

/// Total downtime across links.
Duration total_downtime(const std::vector<Failure>& fs);

}  // namespace netfail::analysis
