// Minimal command-line flag parser with strict validation.
//
// The CLI used to scan argv for known names and silently ignore everything
// else, so a typo like --poliyc ran the default analysis without complaint.
// This parser takes the set of flags a subcommand accepts and rejects
// anything it does not recognise (or a value flag missing its value), so
// the caller can print usage and exit non-zero.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/time.hpp"

namespace netfail::flags {

struct FlagSpec {
  std::string name;        // including the leading "--"
  bool takes_value = false;
};

struct Parsed {
  bool ok = false;
  std::string error;  // set when !ok, e.g. "unknown flag: --frobnicate"

  std::set<std::string> present;               // every flag seen
  std::map<std::string, std::string> values;   // value flags only
  std::vector<std::string> positional;         // non-flag arguments, in order

  bool has(const std::string& name) const { return present.contains(name); }
  std::optional<std::string> value(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

/// Parse `args` (argv slice, no program/subcommand names) against `specs`.
/// Accepts both "--flag value" and "--flag=value"; a repeated flag keeps the
/// last value. Tokens not starting with "--" are collected as positional
/// arguments; a lone "--" ends flag parsing.
Parsed parse_flags(const std::vector<std::string>& args,
                   const std::vector<FlagSpec>& specs);

/// Convenience for main(): parses argv[first..argc).
Parsed parse_flags(int argc, char** argv, int first,
                   const std::vector<FlagSpec>& specs);

// Strict typed value parsers for subcommand mains. The whole string must
// parse and fall in range; the error message names the offending flag so
// the caller can print it verbatim before the usage text.

/// A TCP/UDP port: decimal, 1..65535 (0 would mean "kernel picks", which a
/// user pointing two processes at each other never wants).
Result<std::uint16_t> parse_port(const std::string& flag,
                                 const std::string& value);

/// An ingest shard count: decimal, 1..256. Zero would mean "no engine at
/// all" and the ceiling is far above any plausible core count — the bound
/// exists to catch a mistyped port number landing in --shards.
Result<std::uint32_t> parse_shard_count(const std::string& flag,
                                        const std::string& value);

/// A probability: decimal float in [0, 1].
Result<double> parse_probability(const std::string& flag,
                                 const std::string& value);

/// A non-negative decimal float (rates, scale factors).
Result<double> parse_nonneg_real(const std::string& flag,
                                 const std::string& value);

/// A filesystem path argument (--state-dir). Strictness here is about
/// catching shell mishaps, not legalising POSIX: empty values and values
/// that look like another flag ("--state-dir --http-port" swallowed the
/// next flag as the value) are rejected, as are embedded newlines/NULs
/// that only ever come from quoting accidents.
Result<std::string> parse_path(const std::string& flag,
                               const std::string& value);

/// A duration literal: a positive decimal count with a unit suffix, one of
/// ms / s / m / h / d ("500ms", "30s", "5m", "2h", "1d"). The unit is
/// mandatory — a bare number is ambiguous and refused.
Result<Duration> parse_duration(const std::string& flag,
                                const std::string& value);

}  // namespace netfail::flags
