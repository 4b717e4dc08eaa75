// Simulation time: absolute instants and durations with millisecond
// resolution.
//
// The whole system is driven by one logical clock. Instants are stored as
// milliseconds since the Unix epoch so that rendered syslog timestamps and
// LSP capture timestamps look like real operational data. All arithmetic is
// integral; there is no wall-clock dependence anywhere in the library.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace netfail {

/// A span of simulated time, millisecond resolution, signed.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration millis(std::int64_t ms) { return Duration{ms}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1000}; }
  static constexpr Duration minutes(std::int64_t m) { return seconds(m * 60); }
  static constexpr Duration hours(std::int64_t h) { return minutes(h * 60); }
  static constexpr Duration days(std::int64_t d) { return hours(d * 24); }
  /// Construct from a (possibly fractional) number of seconds.
  static constexpr Duration from_seconds_f(double s) {
    return Duration{static_cast<std::int64_t>(s * 1000.0)};
  }

  constexpr std::int64_t total_millis() const { return ms_; }
  constexpr std::int64_t total_seconds() const { return ms_ / 1000; }
  constexpr double seconds_f() const { return static_cast<double>(ms_) / 1000.0; }
  constexpr double hours_f() const { return seconds_f() / 3600.0; }
  constexpr double days_f() const { return hours_f() / 24.0; }

  constexpr bool is_zero() const { return ms_ == 0; }
  constexpr bool is_negative() const { return ms_ < 0; }

  constexpr Duration operator+(Duration o) const { return Duration{ms_ + o.ms_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ms_ - o.ms_}; }
  constexpr Duration operator-() const { return Duration{-ms_}; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{ms_ * k}; }
  constexpr Duration operator/(std::int64_t k) const { return Duration{ms_ / k}; }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ms_) / static_cast<double>(o.ms_);
  }
  Duration& operator+=(Duration o) { ms_ += o.ms_; return *this; }
  Duration& operator-=(Duration o) { ms_ -= o.ms_; return *this; }
  constexpr auto operator<=>(const Duration&) const = default;

  /// Human-readable rendering, e.g. "2d 3h 04m 05.250s" or "42s".
  std::string to_string() const;

 private:
  explicit constexpr Duration(std::int64_t ms) : ms_(ms) {}
  std::int64_t ms_ = 0;
};

/// An absolute instant on the simulation clock (ms since Unix epoch, UTC).
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint from_unix_millis(std::int64_t ms) { return TimePoint{ms}; }
  static constexpr TimePoint from_unix_seconds(std::int64_t s) { return TimePoint{s * 1000}; }
  /// Construct from a UTC civil date/time (proleptic Gregorian calendar).
  static TimePoint from_civil(int year, int month, int day,
                              int hour = 0, int minute = 0, int second = 0,
                              int millisecond = 0);

  constexpr std::int64_t unix_millis() const { return ms_; }
  constexpr std::int64_t unix_seconds() const { return ms_ / 1000; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint{ms_ + d.total_millis()}; }
  constexpr TimePoint operator-(Duration d) const { return TimePoint{ms_ - d.total_millis()}; }
  constexpr Duration operator-(TimePoint o) const { return Duration::millis(ms_ - o.ms_); }
  TimePoint& operator+=(Duration d) { ms_ += d.total_millis(); return *this; }
  constexpr auto operator<=>(const TimePoint&) const = default;

  /// ISO-8601 rendering, "2010-10-20 14:03:27.250".
  std::string to_string() const;
  /// BSD syslog header rendering, "Oct 20 14:03:27" (RFC 3164 sect. 4.1.2).
  std::string to_syslog_string() const;

 private:
  explicit constexpr TimePoint(std::int64_t ms) : ms_(ms) {}
  std::int64_t ms_ = 0;
};

/// Civil (calendar) decomposition of a TimePoint, UTC.
struct CivilTime {
  int year;
  int month;   // 1..12
  int day;     // 1..31
  int hour;    // 0..23
  int minute;  // 0..59
  int second;  // 0..59
  int millisecond;  // 0..999
};

/// Decompose an instant into UTC calendar fields.
CivilTime to_civil(TimePoint t);

/// Three-letter English month abbreviation, month in 1..12.
const char* month_abbrev(int month);

/// A half-open time interval [begin, end). Empty when end <= begin.
struct TimeRange {
  TimePoint begin;
  TimePoint end;

  constexpr bool empty() const { return end <= begin; }
  constexpr Duration duration() const { return empty() ? Duration{} : end - begin; }
  constexpr bool contains(TimePoint t) const { return begin <= t && t < end; }
  constexpr bool overlaps(const TimeRange& o) const {
    return begin < o.end && o.begin < end;
  }
  constexpr auto operator<=>(const TimeRange&) const = default;

  std::string to_string() const;
};

/// The timestamps a reader accepts from outside bytes: [-2^53, 2^53) ms
/// around the epoch (about 285,000 years either way). The TCP LSP feed's
/// frame decoder, the NFC1 capture reader and the listener-gap and ticket
/// file readers reject anything else, so arrival arithmetic (high water
/// minus the reorder horizon, and the like) can never overflow on hostile
/// input.
inline constexpr TimeRange kInputTimeRange{
    TimePoint::from_unix_millis(-(std::int64_t{1} << 53)),
    TimePoint::from_unix_millis(std::int64_t{1} << 53)};

/// Parse a decimal count of milliseconds since the epoch (digits only, as
/// the bundle's text files write them) into `out`. False on anything that
/// is not such a count or lies outside kInputTimeRange.
bool parse_input_millis(std::string_view s, TimePoint& out);

}  // namespace netfail
