#include "src/stream/event_mux.hpp"

#include "src/common/metrics.hpp"

namespace netfail::stream {
namespace {

// Namespace-scope so the per-event path carries no static-init guard.
metrics::Counter& g_dropped =
    metrics::global().counter("stream.mux.out_of_order_dropped");

/// The source's pending record: advance `next` past records that regress
/// behind the source's last accepted arrival (dropped and counted), accept
/// the first one that does not, and return it; nullptr when exhausted.
template <typename Record>
const Record* pending(const std::vector<Record>& source, std::size_t& next,
                      TimePoint& last, bool& have_last, MuxStats& stats) {
  for (; next < source.size(); ++next) {
    const Record& rec = source[next];
    if (have_last && rec.received_at < last) {
      ++stats.out_of_order_dropped;
      g_dropped.inc();
      continue;
    }
    last = rec.received_at;
    have_last = true;
    return &rec;
  }
  return nullptr;
}

}  // namespace

std::optional<StreamEvent> EventMux::next() {
  const syslog::ReceivedLine* line = pending(
      *lines_, next_line_, last_syslog_, have_last_syslog_, stats_);
  const isis::LspRecord* lsp =
      pending(*records_, next_lsp_, last_lsp_, have_last_lsp_, stats_);
  if (line == nullptr && lsp == nullptr) return std::nullopt;

  // Two-way merge; ties go to syslog for determinism.
  StreamEvent ev;
  if (line != nullptr &&
      (lsp == nullptr || line->received_at <= lsp->received_at)) {
    ev.time = line->received_at;
    ev.line_ptr = line;
    ++stats_.syslog_events;
    ++next_line_;
  } else {
    ev.time = lsp->received_at;
    ev.lsp_ptr = lsp;
    ++stats_.lsp_events;
    ++next_lsp_;
  }
  return ev;
}

EventMux EventMux::over_vectors(const std::vector<syslog::ReceivedLine>& lines,
                                const std::vector<isis::LspRecord>& records) {
  return EventMux(lines, records);
}

}  // namespace netfail::stream
