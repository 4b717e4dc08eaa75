#include "src/syslog/collector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/metrics.hpp"

namespace netfail::syslog {
namespace {

// Namespace-scope (not function-local static): receive() is the hottest
// entry point, and a function-local static would re-check its init guard on
// every call.
struct CollectorMetrics {
  metrics::Counter& received =
      metrics::global().counter("syslog.collector.lines");
};
CollectorMetrics g_collector_metrics;

}  // namespace

ReceivedLine::ReceivedLine(TimePoint at, std::string text)
    : received_at(at), line_(std::move(text)) {
  if (line_.size() > std::numeric_limits<std::uint32_t>::max()) return;
  const Status st = tokenize(line_, parse_);
  if (st.ok()) {
    parse_.status = ParseStatus::kOk;
    return;
  }
  parse_ = LineParse{};  // no half-filled fields survive a failed parse
  parse_.status = st.error().code == ErrorCode::kNotFound
                      ? ParseStatus::kNotFound
                      : ParseStatus::kParseError;
}

void Collector::receive(ReceivedLine rec) {
  NETFAIL_ASSERT(lines_.empty() || lines_.back().received_at <= rec.received_at,
                 "collector lines must arrive in time order");
  g_collector_metrics.received.inc();
  lines_.push_back(std::move(rec));
}

TimePoint resolve_year(TimePoint parsed, TimePoint received) {
  const CivilTime p = to_civil(parsed);
  const int received_year = to_civil(received).year;
  TimePoint best = parsed;
  std::int64_t best_gap = -1;
  for (int year = received_year - 1; year <= received_year + 1; ++year) {
    // Feb 29 in a non-leap year would assert inside from_civil's day math;
    // the candidate is simply skipped (it cannot be the right year).
    if (p.month == 2 && p.day == 29 && !(year % 4 == 0 && (year % 100 != 0 || year % 400 == 0))) {
      continue;
    }
    const TimePoint candidate = TimePoint::from_civil(
        year, p.month, p.day, p.hour, p.minute, p.second, p.millisecond);
    const std::int64_t gap =
        std::llabs((candidate - received).total_millis());
    if (best_gap < 0 || gap < best_gap) {
      best_gap = gap;
      best = candidate;
    }
  }
  return best;
}

ReceivedLine ArrivalCursor::stamp(std::string line) {
  ReceivedLine rec(cursor_, std::move(line));
  if (rec.status() == ParseStatus::kOk) {
    // Keep arrival order monotonic: never step back past the cursor.
    cursor_ = std::max(cursor_, resolve_year(rec.parse().timestamp, cursor_));
    rec.received_at = cursor_;
  }
  return rec;
}

}  // namespace netfail::syslog
