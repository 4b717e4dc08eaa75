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

constexpr std::int64_t kMillisPerDay = 86'400'000;
constexpr std::int64_t kNoCandidate = std::numeric_limits<std::int64_t>::min();

bool is_leap(int year) {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

}  // namespace

ReceivedLine::ReceivedLine(TimePoint at, ByteSlice text)
    : received_at(at), line_(std::move(text)) {
  if (line_.size() > std::numeric_limits<std::uint32_t>::max()) return;
  const Status st = tokenize(line_.view(), parse_);
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
    if (p.month == 2 && p.day == 29 && !is_leap(year)) {
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

TimePoint YearResolver::resolve(TimePoint parsed, TimePoint reference) {
  if (reference < year_begin_ || reference >= year_end_) {
    year_ = to_civil(reference).year;
    year_begin_ = TimePoint::from_civil(year_, 1, 1);
    year_end_ = TimePoint::from_civil(year_ + 1, 1, 1);
    memo_valid_ = false;
  }
  // from_civil(year, m, d, time of day) is the start of (year, m, d) plus
  // the time of day, so only the day's start depends on the year.
  const std::int64_t ms = parsed.unix_millis();
  std::int64_t day = ms / kMillisPerDay;
  if (ms % kMillisPerDay < 0) --day;
  if (!memo_valid_ || day != memo_day_) {
    const CivilTime p = to_civil(TimePoint::from_unix_millis(day * kMillisPerDay));
    for (int k = 0; k < 3; ++k) {
      const int year = year_ - 1 + k;
      day_start_ms_[static_cast<std::size_t>(k)] =
          p.month == 2 && p.day == 29 && !is_leap(year)
              ? kNoCandidate
              : TimePoint::from_civil(year, p.month, p.day).unix_millis();
    }
    memo_day_ = day;
    memo_valid_ = true;
  }
  // The same choice as resolve_year: the earliest of the closest.
  const std::int64_t time_of_day = ms - day * kMillisPerDay;
  TimePoint best = parsed;
  std::int64_t best_gap = -1;
  for (const std::int64_t start : day_start_ms_) {
    if (start == kNoCandidate) continue;
    const TimePoint candidate = TimePoint::from_unix_millis(start + time_of_day);
    const std::int64_t gap =
        std::llabs((candidate - reference).total_millis());
    if (best_gap < 0 || gap < best_gap) {
      best_gap = gap;
      best = candidate;
    }
  }
  return best;
}

void ArrivalCursor::stamp(ReceivedLine& rec) {
  if (rec.status() == ParseStatus::kOk) {
    // Keep arrival order monotonic: never step back past the cursor.
    cursor_ =
        std::max(cursor_, years_.resolve(rec.parse().timestamp, cursor_));
  }
  rec.received_at = cursor_;
}

ReceivedLine ArrivalCursor::stamp(std::string_view line) {
  ReceivedLine rec(cursor_, line);
  stamp(rec);
  return rec;
}

}  // namespace netfail::syslog
