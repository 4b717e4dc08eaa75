#include "src/stream/lookahead.hpp"

#include "src/common/assert.hpp"

namespace netfail::stream {

IsisLookahead::IsisLookahead(const std::vector<isis::LspRecord>& records,
                             const LinkCensus& census)
    : records_(&records),
      extractor_(records, census),
      producer_([this] { produce(); }) {}

IsisLookahead::~IsisLookahead() {
  {
    sync::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  producer_.join();
}

void IsisLookahead::produce() {
  for (std::size_t k = 0;; ++k) {
    {
      sync::UniqueLock lock(mu_);
      while (!stop_ && k - released_ >= kSlots) cv_.wait(lock);
      if (stop_) return;
    }
    // Chunk k - kSlots has been released: its slot is the producer's.
    const bool more = extractor_.next_chunk(slots_[k % kSlots]);
    {
      sync::MutexLock lock(mu_);
      if (more) {
        ++produced_;
      } else {
        exhausted_ = true;
      }
    }
    cv_.notify_all();
    if (!more) return;
  }
}

void IsisLookahead::advance() {
  {
    sync::UniqueLock lock(mu_);
    if (current_ != nullptr) ++released_;
    while (produced_ == taken_ && !exhausted_) cv_.wait(lock);
    NETFAIL_ASSERT(produced_ > taken_,
                   "IS-IS lookahead ran out of chunks before records");
  }
  cv_.notify_all();
  current_ = &slots_[taken_ % kSlots];
  ++taken_;
}

void IsisLookahead::feed(StreamEngine& engine, const StreamEvent& ev) {
  if (ev.kind() == EventKind::kSyslogLine) {
    engine.feed_syslog(ev.line());
    syslog_release_.consumed(ev.line().line());
    return;
  }
  const isis::LspRecord& rec = ev.lsp();
  NETFAIL_ASSERT(&rec == records_->data() + next_record_,
                 "IS-IS lookahead: LSP events must be the capture's records "
                 "in order");
  if (current_ == nullptr || next_record_ == current_->end) advance();
  engine.feed_isis(rec.received_at, current_->is_reach_of(next_record_));
  ++next_record_;
}

}  // namespace netfail::stream
