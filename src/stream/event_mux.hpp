// stream::EventMux — merge the two observation sources into one
// timestamp-ordered event stream.
//
// The paper's artifacts are live collectors: a central syslog host and a
// passive PyRT-style IS-IS listener, each producing an arrival-ordered
// stream. The mux performs a two-way merge on arrival time, checking each
// source's monotonicity along the way: an event that time-travels backwards
// within its own source is dropped and counted (a real tail of a syslog
// file or a corrupt capture can contain such records; the online FSMs
// require per-source order). Ties go to syslog so runs are deterministic.
//
// Sources are pull callbacks, so the mux works equally over in-memory
// vectors (see `over_vectors`), file readers, or live sockets, and holds
// O(1) state: one pending event per source.
//
// Events are *borrowed*, not owned: a StreamEvent points into the storage
// the source returned (zero copies on the per-event path). For a callback
// source that reuses a buffer, the event is valid until the next call to
// next(); for `over_vectors` it stays valid as long as the vectors do.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/time.hpp"
#include "src/isis/listener.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::stream {

enum class EventKind { kSyslogLine, kLsp };

/// A non-owning view of one merged event (see lifetime note above).
/// Exactly one of the two payload pointers is set.
struct StreamEvent {
  TimePoint time;  // arrival timestamp at the event's collector
  const syslog::ReceivedLine* line_ptr = nullptr;
  const isis::LspRecord* lsp_ptr = nullptr;

  EventKind kind() const {
    return line_ptr != nullptr ? EventKind::kSyslogLine : EventKind::kLsp;
  }
  const syslog::ReceivedLine& line() const { return *line_ptr; }
  const isis::LspRecord& lsp() const { return *lsp_ptr; }
};

struct MuxStats {
  std::uint64_t syslog_events = 0;
  std::uint64_t lsp_events = 0;
  std::uint64_t out_of_order_dropped = 0;
};

class EventMux {
 public:
  /// Pull callbacks: return the next record, or nullptr when exhausted.
  /// The pointee must stay valid until the callback is invoked again (a
  /// reused buffer is fine; the mux never holds more than the lookahead).
  using SyslogSource = std::function<const syslog::ReceivedLine*()>;
  using LspSource = std::function<const isis::LspRecord*()>;

  /// Either source may be null (single-source streaming).
  EventMux(SyslogSource syslog_source, LspSource lsp_source);

  /// The next event in merged arrival order, or nullopt when both sources
  /// are exhausted.
  std::optional<StreamEvent> next();

  const MuxStats& stats() const { return stats_; }

  /// Convenience: mux over in-memory captures (e.g. a loaded bundle). The
  /// vectors must outlive the mux and any events it returned.
  static EventMux over_vectors(const std::vector<syslog::ReceivedLine>& lines,
                               const std::vector<isis::LspRecord>& records);

 private:
  void refill_syslog();
  void refill_lsp();

  SyslogSource syslog_source_;
  LspSource lsp_source_;
  // Lookahead, borrowed from the sources. Refills are deferred to the next
  // next() call so a handed-out event is never invalidated by its own pull.
  const syslog::ReceivedLine* pending_line_ = nullptr;
  const isis::LspRecord* pending_lsp_ = nullptr;
  bool need_refill_syslog_ = true;
  bool need_refill_lsp_ = true;
  TimePoint last_syslog_;
  TimePoint last_lsp_;
  bool have_last_syslog_ = false;
  bool have_last_lsp_ = false;
  MuxStats stats_;
};

}  // namespace netfail::stream
