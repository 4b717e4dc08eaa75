#include "src/syslog/extract.hpp"

#include "src/common/byte_slice.hpp"
#include "src/common/metrics.hpp"

namespace netfail::syslog {
namespace {

struct SyslogMetrics {
  metrics::Counter& lines = metrics::global().counter("syslog.extract.lines");
  metrics::Counter& parse_failures =
      metrics::global().counter("syslog.extract.parse_failures");
  metrics::Counter& unresolved =
      metrics::global().counter("syslog.extract.unresolved_links");
  metrics::Counter& transitions =
      metrics::global().counter("syslog.extract.transitions");
};

// Namespace-scope so the per-line hot path carries no static-init guard.
SyslogMetrics g_syslog_metrics;

SyslogMetrics& syslog_metrics() { return g_syslog_metrics; }

}  // namespace

std::optional<SyslogTransition> extract_line(const ReceivedLine& rec,
                                             const LinkCensus& census,
                                             YearResolver& years,
                                             SyslogExtractionStats& stats) {
  ++stats.lines_seen;
  syslog_metrics().lines.inc();
  const LineParse& m = rec.parse();
  if (m.status == ParseStatus::kNotFound) {
    ++stats.irrelevant_lines;
    return std::nullopt;
  }
  if (m.status == ParseStatus::kParseError) {
    ++stats.parse_failures;
    syslog_metrics().parse_failures.inc();
    return std::nullopt;
  }
  const std::optional<LinkId> link =
      census.find_by_interface(m.reporter, m.interface);
  if (!link) {
    ++stats.unresolved_links;
    syslog_metrics().unresolved.inc();
    return std::nullopt;
  }

  SyslogTransition tr;
  tr.time = years.resolve(m.timestamp, rec.received_at);
  tr.dir = m.dir();
  tr.cls = classify(m.type());
  tr.type = m.type();
  tr.link = *link;
  tr.reporter = m.reporter;
  tr.reason = std::string(rec.reason());
  syslog_metrics().transitions.inc();
  return tr;
}

SyslogExtraction extract_transitions(const Collector& collector,
                                     const LinkCensus& census) {
  SyslogExtraction out;
  out.transitions.reserve(collector.size());
  YearResolver years;
  ReleaseBehind release;
  for (const ReceivedLine& rec : collector.lines()) {
    if (std::optional<SyslogTransition> tr =
            extract_line(rec, census, years, out.stats)) {
      out.transitions.push_back(std::move(*tr));
    }
    release.consumed(rec.line());
  }
  return out;
}

}  // namespace netfail::syslog
