#include "src/stream/event_mux.hpp"

#include "src/common/metrics.hpp"

namespace netfail::stream {
namespace {

// Namespace-scope so the refill paths carry no static-init guard.
metrics::Counter& g_dropped =
    metrics::global().counter("stream.mux.out_of_order_dropped");

}  // namespace

EventMux::EventMux(SyslogSource syslog_source, LspSource lsp_source)
    : syslog_source_(std::move(syslog_source)),
      lsp_source_(std::move(lsp_source)) {}

void EventMux::refill_syslog() {
  while (syslog_source_) {
    pending_line_ = syslog_source_();
    if (pending_line_ == nullptr) return;
    if (have_last_syslog_ && pending_line_->received_at < last_syslog_) {
      ++stats_.out_of_order_dropped;
      g_dropped.inc();
      continue;  // regression within the source: drop and pull again
    }
    last_syslog_ = pending_line_->received_at;
    have_last_syslog_ = true;
    return;
  }
  pending_line_ = nullptr;
}

void EventMux::refill_lsp() {
  while (lsp_source_) {
    pending_lsp_ = lsp_source_();
    if (pending_lsp_ == nullptr) return;
    if (have_last_lsp_ && pending_lsp_->received_at < last_lsp_) {
      ++stats_.out_of_order_dropped;
      g_dropped.inc();
      continue;
    }
    last_lsp_ = pending_lsp_->received_at;
    have_last_lsp_ = true;
    return;
  }
  pending_lsp_ = nullptr;
}

std::optional<StreamEvent> EventMux::next() {
  // Deferred refills: the slot consumed by the previous next() is re-pulled
  // only now, so the event we handed out stayed valid in between.
  if (need_refill_syslog_) {
    refill_syslog();
    need_refill_syslog_ = false;
  }
  if (need_refill_lsp_) {
    refill_lsp();
    need_refill_lsp_ = false;
  }

  const bool have_line = pending_line_ != nullptr;
  const bool have_lsp = pending_lsp_ != nullptr;
  if (!have_line && !have_lsp) return std::nullopt;

  // Two-way merge; ties go to syslog for determinism.
  const bool take_syslog =
      have_line &&
      (!have_lsp || pending_line_->received_at <= pending_lsp_->received_at);

  StreamEvent ev;
  if (take_syslog) {
    ev.time = pending_line_->received_at;
    ev.line_ptr = pending_line_;
    ++stats_.syslog_events;
    need_refill_syslog_ = true;
  } else {
    ev.time = pending_lsp_->received_at;
    ev.lsp_ptr = pending_lsp_;
    ++stats_.lsp_events;
    need_refill_lsp_ = true;
  }
  return ev;
}

EventMux EventMux::over_vectors(const std::vector<syslog::ReceivedLine>& lines,
                                const std::vector<isis::LspRecord>& records) {
  std::size_t line_cursor = 0;
  std::size_t lsp_cursor = 0;
  return EventMux(
      [&lines, line_cursor]() mutable -> const syslog::ReceivedLine* {
        if (line_cursor >= lines.size()) return nullptr;
        return &lines[line_cursor++];
      },
      [&records, lsp_cursor]() mutable -> const isis::LspRecord* {
        if (lsp_cursor >= records.size()) return nullptr;
        return &records[lsp_cursor++];
      });
}

}  // namespace netfail::stream
