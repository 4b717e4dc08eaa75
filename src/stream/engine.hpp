// stream::StreamEngine — single-pass online failure analysis over an
// interleaved syslog + IS-IS event stream.
//
// The engine is the streaming counterpart of `analysis::run_pipeline`'s
// extract+reconstruct stages: it extracts each syslog line from the parse
// the line carries since it was received (never re-tokenizing the text)
// and diffs each LSP as it arrives, sharing the exact extractor code with
// the batch path, and feeds the resulting transitions into two
// LinkTrackers — one per observation source, mirroring the paper's two
// reconstructions. All state
// is O(links + reorder window); the full event trace is never buffered.
//
// LSPs enter by one of two doors that share the tracker path. `feed_lsp`
// runs the engine's own `isis::StreamingExtractor` on the record and hands
// the transitions to `feed_isis`; `serve` uses it, because its checkpoints
// carry the differ and fold state, and a live socket delivers one record
// at a time. `feed_isis` takes a record's transitions extracted elsewhere:
// `netfail stream` extracts the whole capture on the batch lanes ahead of
// the engine (see lookahead.hpp) and feeds each LSP event that way, so its
// engine's own extractor stays empty.
//
// `Checkpoint` captures the engine mid-stream (extractor LSP baselines,
// per-link FSM states, reorder buffers, counters) so analysis can be
// paused and resumed — e.g. across capture-file rotations — without
// replaying history. Resume requires the same census (the checkpoint
// stores per-census link ids).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "src/config/census.hpp"
#include "src/detect/detector.hpp"
#include "src/isis/extract.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/link_tracker.hpp"
#include "src/stream/sharded.hpp"
#include "src/syslog/extract.hpp"

namespace netfail::svc {
// Serializes engine state to the durable snapshot format (src/svc); the
// only non-member granted access to engine internals.
class EngineCodec;
}  // namespace netfail::svc

namespace netfail::stream {

struct EngineOptions {
  /// Tracker configuration, shared by both source trackers (the engine
  /// overrides `source` per tracker).
  TrackerOptions tracker;
  /// Online anomaly detection stage (off by default; a disabled detector
  /// costs one branch per extracted transition).
  detect::DetectorOptions detect;
  /// Sharded operation (see sharded.hpp): when `partition` is set, this
  /// engine is shard `shard` of partition->shard_count() and analyzes only
  /// the links it owns. Syslog lines are *routed* (each line reaches
  /// exactly one shard, so extraction stats sum to the serial run), while
  /// LSP streams are *broadcast* (the streaming extractor's pair state
  /// needs both endpoints of every adjacency); the per-transition ownership
  /// filter below keeps tracker and detector state disjoint across shards.
  /// The map must outlive the engine and every checkpoint taken from it.
  const ShardMap* partition = nullptr;
  std::uint32_t shard = 0;
};

class StreamEngine;

/// A resumable snapshot of a StreamEngine. Opaque value: copy it, ship it,
/// resume from it via StreamEngine::resume(). The census is referenced,
/// not captured; resuming against a different census is undefined.
///
/// Detector state rides in the deep copy like every other engine member:
/// the per-link CUSUM statistics, the open drift window, and the full
/// alert log are all captured, so a resumed engine emits exactly the
/// alerts an uninterrupted run would have emitted from this point on.
class Checkpoint {
 public:
  TimePoint high_water() const { return high_water_; }
  std::uint64_t events_ingested() const { return events_; }
  /// Alerts the detector stage had emitted by snapshot time (0 with
  /// detection disabled).
  std::uint64_t alerts_emitted() const { return alerts_; }
  /// The snapshotted engine itself (trackers, stats, detector) — read-only
  /// access for the sharded merge, which folds per-shard checkpoints into
  /// one serial-identical result.
  const StreamEngine& state() const;

 private:
  friend class StreamEngine;
  std::shared_ptr<const StreamEngine> state_;  // deep copy at snapshot time
  TimePoint high_water_;
  std::uint64_t events_ = 0;
  std::uint64_t alerts_ = 0;
};

class StreamEngine {
 public:
  explicit StreamEngine(const LinkCensus& census, EngineOptions options = {});

  /// Feed the next event in merged arrival order (see EventMux).
  void feed(const StreamEvent& ev);
  void feed_syslog(const syslog::ReceivedLine& rec);
  /// Extract `rec` with the engine's own extractor, then `feed_isis`.
  void feed_lsp(const isis::LspRecord& rec);
  /// One LSP event received at `received_at` whose transitions (the
  /// record's, in emission order) were extracted outside the engine.
  /// Counts the event, advances the high-water mark and runs the IS-reach
  /// filter, detector and tracker; `isis_stats()` does not see the record.
  void feed_isis(TimePoint received_at,
                 std::span<const isis::IsisTransition> transitions);

  /// End of stream: drain both trackers. Idempotent.
  void finish();

  /// Pause: snapshot the complete engine state.
  Checkpoint checkpoint() const;
  /// Resume a snapshot (callbacks on the trackers are preserved).
  static StreamEngine resume(const Checkpoint& cp);

  // -- the two online reconstructions ------------------------------------------
  LinkTracker& isis_tracker() { return isis_tracker_; }
  LinkTracker& syslog_tracker() { return syslog_tracker_; }
  const LinkTracker& isis_tracker() const { return isis_tracker_; }
  const LinkTracker& syslog_tracker() const { return syslog_tracker_; }

  // -- the online anomaly detection stage ---------------------------------------
  detect::LinkDetector& detector() { return detector_; }
  const detect::LinkDetector& detector() const { return detector_; }

  const syslog::SyslogExtractionStats& syslog_stats() const {
    return syslog_stats_;
  }
  /// What the engine's own extractor counted (records fed via `feed_lsp`).
  const isis::ExtractionStats& isis_stats() const {
    return isis_extractor_.stats();
  }

  std::uint64_t events_ingested() const { return events_; }
  std::uint64_t syslog_events() const { return syslog_events_; }
  std::uint64_t lsp_events() const { return lsp_events_; }
  TimePoint high_water() const { return high_water_; }
  /// True once finish() ran; a finished engine takes no more events.
  bool finished() const { return finished_; }

  /// True when this engine analyzes `link`. Always true unpartitioned;
  /// invalid links carry no per-link state, so every shard "owns" them.
  bool owns_link(LinkId link) const {
    return options_.partition == nullptr || !link.valid() ||
           options_.partition->owns(options_.shard, link);
  }

 private:
  friend class netfail::svc::EngineCodec;

  const LinkCensus* census_;
  EngineOptions options_;
  isis::StreamingExtractor isis_extractor_;
  syslog::SyslogExtractionStats syslog_stats_;
  // A pure cache over the syslog path's year resolution: not saved with
  // the engine's state (svc::EngineCodec), and empty after a restore.
  syslog::YearResolver years_;
  LinkTracker isis_tracker_;
  LinkTracker syslog_tracker_;
  detect::LinkDetector detector_;
  std::vector<isis::IsisTransition> scratch_;
  std::uint64_t events_ = 0;
  std::uint64_t syslog_events_ = 0;
  std::uint64_t lsp_events_ = 0;
  TimePoint high_water_;
  bool finished_ = false;
};

}  // namespace netfail::stream
