#include "src/analysis/link_walker.hpp"

namespace netfail::analysis {

void LinkWalker::feed(TimePoint t, LinkDirection dir) {
  // Merge same-direction reports from the two ends of the link.
  if (s_.has_last_kept && s_.last_kept_dir == dir &&
      t - s_.last_kept_time <= kMergeWindow) {
    ++counters_.merged_duplicates;
    return;
  }
  if (dir == LinkDirection::kDown) {
    on_down(t);
  } else {
    on_up(t);
  }
  s_.has_last_kept = true;
  s_.last_kept_time = t;
  s_.last_kept_dir = dir;
}

void LinkWalker::finish() {
  if (s_.state == LinkDirection::kDown) ++counters_.unterminated;
}

void LinkWalker::emit(TimeRange span) {
  if (span.empty()) return;
  Failure f;
  f.link = link_;
  f.span = span;
  failures_.push_back(f);
}

void LinkWalker::on_down(TimePoint t) {
  if (s_.state == LinkDirection::kUp) {
    s_.state = LinkDirection::kDown;
    s_.failure_start = t;
    s_.dropped_episode = false;
    return;
  }
  // Double DOWN: the state between failure_start and t is ambiguous.
  ++counters_.double_downs;
  ambiguous_.push_back(
      AmbiguousSegment{link_, LinkDirection::kDown, s_.failure_start, t});
  switch (options_.policy) {
    case AmbiguityPolicy::kHoldState:
    case AmbiguityPolicy::kAssumeDown:
      // Second message is spurious / period was down: failure continues
      // from the original start.
      break;
    case AmbiguityPolicy::kAssumeUp:
      // Period was up: the first failure's end is unknown — discard it and
      // restart the failure at the repeated message.
      s_.failure_start = t;
      break;
    case AmbiguityPolicy::kDrop:
      // Prior-work behaviour: the whole episode is tainted; swallow it,
      // including the eventual UP.
      s_.dropped_episode = true;
      s_.failure_start = t;
      break;
  }
}

void LinkWalker::on_up(TimePoint t) {
  if (s_.state == LinkDirection::kDown) {
    s_.state = LinkDirection::kUp;
    if (options_.policy == AmbiguityPolicy::kDrop && s_.dropped_episode) {
      s_.dropped_episode = false;  // episode swallowed, nothing recorded
    } else {
      emit(TimeRange{s_.failure_start, t});
    }
    set_last_up(t);
    return;
  }
  // Double UP: state between last_up and t is ambiguous.
  ++counters_.double_ups;
  const TimePoint first = s_.has_last_up ? s_.last_up : options_.period.begin;
  ambiguous_.push_back(
      AmbiguousSegment{link_, LinkDirection::kUp, first, t});
  switch (options_.policy) {
    case AmbiguityPolicy::kHoldState:
    case AmbiguityPolicy::kAssumeUp:
      break;  // spurious reminder; nothing changes
    case AmbiguityPolicy::kAssumeDown:
      // Period was down: record it as a failure.
      emit(TimeRange{first, t});
      break;
    case AmbiguityPolicy::kDrop:
      // Remove the failure the first UP closed (the event is tainted).
      if (!failures_.empty() && failures_.back().link == link_ &&
          s_.has_last_up && failures_.back().span.end == s_.last_up) {
        failures_.pop_back();
      }
      break;
  }
  set_last_up(t);
}

void LinkWalker::set_last_up(TimePoint t) {
  s_.last_up = t;
  s_.has_last_up = true;
}

}  // namespace netfail::analysis
