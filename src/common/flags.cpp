#include "src/common/flags.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace netfail::flags {
namespace {

const FlagSpec* find_spec(const std::vector<FlagSpec>& specs,
                          const std::string& name) {
  for (const FlagSpec& s : specs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

Parsed parse_flags(const std::vector<std::string>& args,
                   const std::vector<FlagSpec>& specs) {
  Parsed out;
  bool flags_done = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (flags_done || arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      out.positional.push_back(arg);
      continue;
    }

    std::string name = arg;
    std::optional<std::string> inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }

    const FlagSpec* spec = find_spec(specs, name);
    if (spec == nullptr) {
      out.error = "unknown flag: " + name;
      return out;
    }
    out.present.insert(name);
    if (!spec->takes_value) {
      if (inline_value) {
        out.error = "flag " + name + " does not take a value";
        return out;
      }
      continue;
    }
    if (inline_value) {
      out.values[name] = *inline_value;
    } else if (i + 1 < args.size()) {
      out.values[name] = args[++i];
    } else {
      out.error = "flag " + name + " requires a value";
      return out;
    }
  }
  out.ok = true;
  return out;
}

Parsed parse_flags(int argc, char** argv, int first,
                   const std::vector<FlagSpec>& specs) {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  return parse_flags(args, specs);
}

Result<std::uint16_t> parse_port(const std::string& flag,
                                 const std::string& value) {
  char* end = nullptr;
  const unsigned long n = std::strtoul(value.c_str(), &end, 10);
  // strtoul is lenient (leading whitespace, '+', '-' wraparound); a port is
  // strictly a run of decimal digits.
  if (value.empty() || *end != '\0' ||
      !std::isdigit(static_cast<unsigned char>(value.front())) || n < 1 ||
      n > 65535) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag + " expects a port (1-65535), got '" +
                          value + "'");
  }
  return static_cast<std::uint16_t>(n);
}

Result<std::uint32_t> parse_shard_count(const std::string& flag,
                                        const std::string& value) {
  char* end = nullptr;
  const unsigned long n = std::strtoul(value.c_str(), &end, 10);
  // Same strictness as parse_port: a shard count is a bare run of decimal
  // digits, no whitespace, no sign, no trailing junk.
  if (value.empty() || *end != '\0' ||
      !std::isdigit(static_cast<unsigned char>(value.front())) || n < 1 ||
      n > 256) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag + " expects a shard count (1-256), got '" +
                          value + "'");
  }
  return static_cast<std::uint32_t>(n);
}

Result<double> parse_probability(const std::string& flag,
                                 const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  // Reject strtod's extras (whitespace, sign prefixes, nan/inf): a
  // probability literal starts with a digit or a dot and is finite.
  if (value.empty() || *end != '\0' ||
      !(std::isdigit(static_cast<unsigned char>(value.front())) ||
        value.front() == '.') ||
      !std::isfinite(p) || p < 0.0 || p > 1.0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag + " expects a probability in [0,1], got '" +
                          value + "'");
  }
  return p;
}

Result<double> parse_nonneg_real(const std::string& flag,
                                 const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' ||
      !(std::isdigit(static_cast<unsigned char>(value.front())) ||
        value.front() == '.') ||
      !std::isfinite(v) || v < 0.0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag + " expects a non-negative number, got '" +
                          value + "'");
  }
  return v;
}

Result<std::string> parse_path(const std::string& flag,
                               const std::string& value) {
  // A value starting with '-' is almost always the *next* flag swallowed
  // by a missing argument ("--state-dir --http-port 80"); NUL and newline
  // only arise from quoting accidents. Everything else is a legal path.
  const bool looks_like_flag = !value.empty() && value.front() == '-';
  const bool has_control =
      value.find('\n') != std::string::npos ||
      value.find('\r') != std::string::npos ||
      value.find('\0') != std::string::npos;
  if (value.empty() || looks_like_flag || has_control) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag + " expects a path, got '" + value + "'");
  }
  return value;
}

Result<Duration> parse_duration(const std::string& flag,
                                const std::string& value) {
  const auto fail = [&]() -> Result<Duration> {
    return make_error(ErrorCode::kInvalidArgument,
                      "flag " + flag +
                          " expects a duration like 500ms/30s/5m/2h/1d, got '" +
                          value + "'");
  };
  if (value.empty() ||
      !std::isdigit(static_cast<unsigned char>(value.front()))) {
    return fail();
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  const std::string unit(end);
  // The unit suffix is mandatory (a bare number is ambiguous). The count
  // must be positive, at most 2^40, and small enough for its unit that the
  // millisecond total fits in an int64.
  std::int64_t unit_ms = 0;
  if (unit == "ms") unit_ms = 1;
  if (unit == "s") unit_ms = 1000;
  if (unit == "m") unit_ms = 60 * 1000;
  if (unit == "h") unit_ms = 60 * 60 * 1000;
  if (unit == "d") unit_ms = 24 * 60 * 60 * 1000;
  if (unit_ms == 0 || n < 1 || n > (1ull << 40) ||
      n > static_cast<unsigned long long>(
              std::numeric_limits<std::int64_t>::max() / unit_ms)) {
    return fail();
  }
  return Duration::millis(static_cast<std::int64_t>(n) * unit_ms);
}

}  // namespace netfail::flags
