// Small string utilities: printf-style formatting into std::string plus the
// handful of split/trim/join helpers the config and syslog parsers need.
// (GCC 12 has no <format>, so strformat() fills the gap.)
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netfail {

/// printf into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of whitespace; drops empty fields.
std::vector<std::string> split_whitespace(std::string_view s);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a non-negative decimal integer; returns false on any non-digit
/// and on a value past 2^64 - 1 (never wraps).
bool parse_uint(std::string_view s, std::uint64_t& out);

/// Render a double with `decimals` places ("%.*f").
std::string format_double(double v, int decimals);

/// Render an integer with thousands separators: 11095550 -> "11,095,550".
std::string with_commas(std::int64_t v);

}  // namespace netfail
