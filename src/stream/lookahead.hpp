// stream::IsisLookahead — feed a StreamEngine from a loaded capture with
// IS-IS extraction running ahead of it on the batch differ lanes.
//
// `netfail stream` walks an EventMux over a bundle's syslog lines and LSP
// records. Fed through `StreamEngine::feed`, every LSP is decoded, diffed
// and folded on the engine's thread. The lookahead instead runs
// `isis::LaneExtractor` over the whole LSP vector on a producer thread:
// chunks of `isis::kExtractChunk` records, diffed on `isis::kExtractLanes`
// lanes and folded in record order, are handed to the engine's thread
// through a bounded queue of two reused chunk buffers. `feed` passes each
// syslog event to `feed_syslog` and each LSP event, with its record's
// already-folded transitions, to `feed_isis`.
//
// The engine sees exactly what a per-event `feed` loop gives it: the lanes
// and the engine's extractor run one differ and fold algorithm, the fold
// sees record order on either schedule, and `feed_isis` is the tracker half
// of `feed_lsp`. The mux hands out every record in vector order when the
// capture is arrival-ordered (io::read_lsp_capture rejects one that is
// not), so the lookahead checks that each LSP event is the next record
// rather than re-deciding which records the mux drops.
#pragma once

#include <array>
#include <cstddef>
#include <thread>
#include <vector>

#include "src/common/byte_slice.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/config/census.hpp"
#include "src/isis/extract.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"

namespace netfail::stream {

class IsisLookahead {
 public:
  /// Starts extracting `records` on a producer thread. `records` must be
  /// arrival-ordered and be the LSP vector of the mux whose events are fed;
  /// it and `census` must outlive the lookahead.
  IsisLookahead(const std::vector<isis::LspRecord>& records,
                const LinkCensus& census);
  /// Stops the producer, waiting for the chunk it is on.
  ~IsisLookahead();
  IsisLookahead(const IsisLookahead&) = delete;
  IsisLookahead& operator=(const IsisLookahead&) = delete;

  /// Feed `ev`, the mux's next event, to `engine`. Aborts when an LSP event
  /// is not the record after the previous one.
  void feed(StreamEngine& engine, const StreamEvent& ev);

 private:
  static constexpr std::size_t kSlots = 2;

  void produce();
  /// Release the current chunk (if any) and wait for the next one.
  void advance();

  const std::vector<isis::LspRecord>* records_;
  isis::LaneExtractor extractor_;  // the producer thread's
  /// Chunk k lives in slots_[k % kSlots]: the producer fills it once the
  /// consumer has released chunk k - kSlots; the consumer reads it once
  /// `produced_` passes k. The counters order every access.
  std::array<isis::ExtractedChunk, kSlots> slots_;

  sync::Mutex mu_;
  sync::CondVar cv_;
  std::size_t produced_ NETFAIL_GUARDED_BY(mu_) = 0;  // chunks filled
  std::size_t released_ NETFAIL_GUARDED_BY(mu_) = 0;  // chunks fed out
  bool exhausted_ NETFAIL_GUARDED_BY(mu_) = false;    // no chunk follows
  bool stop_ NETFAIL_GUARDED_BY(mu_) = false;

  // The consumer's (the engine thread's) position.
  const isis::ExtractedChunk* current_ = nullptr;
  std::size_t taken_ = 0;       // chunks the consumer has started on
  std::size_t next_record_ = 0;  // index of the next LSP event's record
  ReleaseBehind syslog_release_;  // drops the pages of the lines fed

  std::thread producer_;  // last: starts once every member above exists
};

}  // namespace netfail::stream
