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
// The sources are two in-memory captures (a loaded bundle's received
// lines, already parsed, and its LSP records); the mux holds O(1) state, a
// read position and the last accepted arrival per source. The live path
// does not come through here: the gateway stamps and routes datagrams
// itself.
//
// Events are *borrowed*, not owned: a StreamEvent points into the vectors
// (zero copies on the per-event path) and stays valid as long as they do.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Mux over in-memory captures (e.g. a loaded bundle). The vectors must
  /// outlive the mux and any events it returned.
  static EventMux over_vectors(const std::vector<syslog::ReceivedLine>& lines,
                               const std::vector<isis::LspRecord>& records);

  /// The next event in merged arrival order, or nullopt when both sources
  /// are exhausted.
  std::optional<StreamEvent> next();

  const MuxStats& stats() const { return stats_; }

 private:
  EventMux(const std::vector<syslog::ReceivedLine>& lines,
           const std::vector<isis::LspRecord>& records)
      : lines_(&lines), records_(&records) {}

  const std::vector<syslog::ReceivedLine>* lines_;
  const std::vector<isis::LspRecord>* records_;
  std::size_t next_line_ = 0;
  std::size_t next_lsp_ = 0;
  TimePoint last_syslog_;
  TimePoint last_lsp_;
  bool have_last_syslog_ = false;
  bool have_last_lsp_ = false;
  MuxStats stats_;
};

}  // namespace netfail::stream
