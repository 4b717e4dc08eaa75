// The passive IS-IS listener (our analogue of the PyRT-based listener the
// paper deployed at CENIC).
//
// It receives raw LSP bytes flooded through the network and records them
// with arrival timestamps. Like the real listener it can be offline for
// maintenance windows — LSPs flooded during a gap are simply never recorded,
// which is why the paper's sanitization step removes failures spanning
// listener downtime (sect. 4.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/byte_slice.hpp"
#include "src/common/interval_set.hpp"
#include "src/common/time.hpp"

namespace netfail::isis {

/// One recorded LSP. `bytes` is the raw PDU: a slice of the capture file
/// a record was loaded from, or a block of its own for one delivered live.
struct LspRecord {
  TimePoint received_at;
  ByteSlice bytes;

  friend bool operator==(const LspRecord&, const LspRecord&) = default;
};

class Listener {
 public:
  /// Declare the maintenance windows during which the listener is down.
  void set_offline_windows(IntervalSet windows) { offline_ = std::move(windows); }
  const IntervalSet& offline_windows() const { return offline_; }
  bool is_offline(TimePoint t) const { return offline_.contains(t); }

  /// Deliver a flooded LSP; dropped silently when the listener is offline.
  /// A recorded LSP is copied into one block of its own.
  void deliver(TimePoint t, std::span<const std::uint8_t> bytes);

  const std::vector<LspRecord>& records() const { return records_; }
  std::size_t delivered_count() const { return records_.size(); }
  std::size_t dropped_count() const { return dropped_; }

  /// Account for periodic refresh floods that are counted analytically
  /// rather than materialized (see DESIGN.md): they carry no state change
  /// but contribute to the "IS-IS updates" total of Table 1.
  void add_virtual_refreshes(std::uint64_t n) { virtual_refreshes_ += n; }
  std::uint64_t total_updates() const {
    return records_.size() + virtual_refreshes_;
  }

 private:
  IntervalSet offline_;
  std::vector<LspRecord> records_;
  std::size_t dropped_ = 0;
  std::uint64_t virtual_refreshes_ = 0;
};

}  // namespace netfail::isis
