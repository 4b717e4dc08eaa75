#include "src/common/time.hpp"

#include <cinttypes>
#include <cstdio>

#include "src/common/assert.hpp"
#include "src/common/strfmt.hpp"

namespace netfail {
namespace {

// Days from the Unix epoch (1970-01-01) to year/month/day, proleptic
// Gregorian. Howard Hinnant's public-domain `days_from_civil` algorithm.
std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Inverse of days_from_civil.
void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yr = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);                    // [1, 31]
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));                         // [1, 12]
  y = static_cast<int>(yr + (m <= 2));
}

constexpr std::int64_t kMillisPerDay = 86'400'000;

// Floor division/modulus so pre-1970 instants decompose correctly.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

std::string Duration::to_string() const {
  std::int64_t ms = ms_;
  const char* sign = "";
  if (ms < 0) {
    sign = "-";
    ms = -ms;
  }
  const std::int64_t days = ms / kMillisPerDay;
  ms %= kMillisPerDay;
  const std::int64_t hours = ms / 3'600'000;
  ms %= 3'600'000;
  const std::int64_t minutes = ms / 60'000;
  ms %= 60'000;
  const std::int64_t seconds = ms / 1000;
  const std::int64_t millis = ms % 1000;

  char buf[64];
  if (days > 0) {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 "d %" PRId64 "h %02" PRId64 "m", sign,
                  days, hours, minutes);
  } else if (hours > 0) {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 "h %02" PRId64 "m %02" PRId64 "s", sign,
                  hours, minutes, seconds);
  } else if (minutes > 0) {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 "m %02" PRId64 "s", sign, minutes,
                  seconds);
  } else if (millis != 0) {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 ".%03" PRId64 "s", sign, seconds,
                  millis);
  } else {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 "s", sign, seconds);
  }
  return buf;
}

TimePoint TimePoint::from_civil(int year, int month, int day, int hour,
                                int minute, int second, int millisecond) {
  NETFAIL_ASSERT(month >= 1 && month <= 12, "month out of range");
  NETFAIL_ASSERT(day >= 1 && day <= 31, "day out of range");
  const std::int64_t days = days_from_civil(year, month, day);
  const std::int64_t ms = ((days * 24 + hour) * 60 + minute) * 60'000 +
                          second * 1000 + millisecond;
  return TimePoint::from_unix_millis(ms);
}

CivilTime to_civil(TimePoint t) {
  const std::int64_t ms_total = t.unix_millis();
  const std::int64_t day = floor_div(ms_total, kMillisPerDay);
  std::int64_t ms = ms_total - day * kMillisPerDay;  // [0, kMillisPerDay)

  CivilTime c{};
  civil_from_days(day, c.year, c.month, c.day);
  c.hour = static_cast<int>(ms / 3'600'000);
  ms %= 3'600'000;
  c.minute = static_cast<int>(ms / 60'000);
  ms %= 60'000;
  c.second = static_cast<int>(ms / 1000);
  c.millisecond = static_cast<int>(ms % 1000);
  return c;
}

const char* month_abbrev(int month) {
  static const char* const kNames[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                       "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  NETFAIL_ASSERT(month >= 1 && month <= 12, "month out of range");
  return kNames[month - 1];
}

std::string TimePoint::to_string() const {
  const CivilTime c = to_civil(*this);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d %02d:%02d:%02d.%03d", c.year,
                c.month, c.day, c.hour, c.minute, c.second, c.millisecond);
  return buf;
}

std::string TimePoint::to_syslog_string() const {
  const CivilTime c = to_civil(*this);
  // RFC 3164: day-of-month is space-padded, not zero-padded.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s %2d %02d:%02d:%02d", month_abbrev(c.month),
                c.day, c.hour, c.minute, c.second);
  return buf;
}

std::string TimeRange::to_string() const {
  return "[" + begin.to_string() + ", " + end.to_string() + ")";
}

bool parse_input_millis(std::string_view s, TimePoint& out) {
  std::uint64_t ms = 0;
  if (!parse_uint(s, ms) ||
      ms >= static_cast<std::uint64_t>(kInputTimeRange.end.unix_millis())) {
    return false;
  }
  out = TimePoint::from_unix_millis(static_cast<std::int64_t>(ms));
  return true;
}

}  // namespace netfail
