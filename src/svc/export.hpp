// svc export — a deterministic, shareable text rendering of one capture's
// per-link analysis, optionally anonymized.
//
// The export carries the full interval/count structure the paper's
// analyses need — per-link failures (both observation sources), flap
// episodes, resolved syslog transitions and detector alerts — in a plain
// line-oriented format with millisecond timestamps. With
// `ExportOptions::anonymize` set, every hostname/interface is remapped
// through the seeded Anonymizer and free-text syslog reasons are replaced
// by kRedactedText; the anonymized export is structurally isomorphic to
// the plain one (same lines, same numbers, bijective names) and contains
// zero original name bytes — the round-trip test in tests/svc enforces
// both properties.
//
// Line grammar (one record per line, link-id order, "end" terminates each
// link block):
//
//   netfail-export v1
//   links <count>
//   link <name>
//   S <source> failures=<n> downtime_ms=<ms>
//   F <source> <begin_ms> <end_ms> <in_flap 0|1>
//   E <source> <begin_ms> <end_ms> <failure_count>
//   T <time_ms> <down|up> reporter=<host> reason=<text>
//   A <time_ms> <kind> <score>
//   end
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/failure.hpp"
#include "src/analysis/flaps.hpp"
#include "src/common/result.hpp"
#include "src/config/census.hpp"
#include "src/detect/alert.hpp"
#include "src/svc/anonymize.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::svc {

struct ExportOptions {
  bool anonymize = false;
  std::uint64_t seed = kDefaultAnonymizeSeed;
};

struct ExportInputs {
  const LinkCensus* census = nullptr;
  /// Released failures from both reconstructions (any order; the renderer
  /// sorts per link by span then source).
  std::vector<analysis::Failure> failures;
  std::vector<analysis::FlapEpisode> syslog_episodes;
  std::vector<analysis::FlapEpisode> isis_episodes;
  /// Link-resolved syslog transitions in time order (reporter + free text).
  std::vector<syslog::SyslogTransition> transitions;
  std::vector<detect::LinkAlert> alerts;
};

/// Takes the export's bytes in order, one piece at a time; returns false
/// when it could not take all of a piece.
using ExportSink = std::function<bool(std::string_view)>;

/// The export is handed to its sink in pieces of about this many bytes
/// (a piece ends on a line end, so it may run one line over).
inline constexpr std::size_t kExportPieceBytes = std::size_t{1} << 16;

/// Renders the export into `sink` through one buffer of about
/// kExportPieceBytes, so the whole text is never held at once. Returns the
/// bytes the sink took, or an error once it refuses a piece (the render
/// stops there).
Result<std::size_t> render_export(const ExportInputs& in,
                                  const ExportOptions& opts,
                                  const ExportSink& sink);

/// The same render into one string.
std::string render_export(const ExportInputs& in, const ExportOptions& opts);

}  // namespace netfail::svc
