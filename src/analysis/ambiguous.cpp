#include "src/analysis/ambiguous.hpp"

#include <algorithm>
#include <span>

namespace netfail::analysis {

AmbiguityClassification classify_ambiguous(
    const std::vector<AmbiguousSegment>& segments,
    const std::vector<Failure>& isis_failures,
    const std::vector<isis::IsisTransition>& is_reach,
    const MatchOptions& options) {
  return classify_ambiguous(segments, isis_failures,
                            TransitionTimeIndex(is_reach),
                            LinkDowntime(isis_failures), options);
}

AmbiguityClassification classify_ambiguous(
    const std::vector<AmbiguousSegment>& segments,
    const std::vector<Failure>& isis_failures,
    const TransitionTimeIndex& index, const LinkDowntime& isis_down,
    const MatchOptions& options) {
  AmbiguityClassification out;

  // Failure spans per link, sorted by begin, for the same-failure statistic.
  // `reach[k]` is the latest end among the link's first k + 1 spans, so one
  // binary search answers "does some span cover both messages".
  const LinkSlots& slots = isis_down.slots();
  Buckets<TimeRange> spans(
      slots.size(), isis_failures.size(),
      [&](std::size_t i) { return slots.of(isis_failures[i].link); },
      [&](std::size_t i) { return isis_failures[i].span; });
  std::vector<TimePoint> reach(spans.all().size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::span<TimeRange> v = spans[s];
    std::sort(v.begin(), v.end(), [](const TimeRange& a, const TimeRange& b) {
      return a.begin < b.begin;
    });
    const std::size_t base =
        static_cast<std::size_t>(v.data() - spans.all().data());
    for (std::size_t k = 0; k < v.size(); ++k) {
      reach[base + k] =
          k == 0 ? v[k].end : std::max(reach[base + k - 1], v[k].end);
    }
  }

  for (const AmbiguousSegment& seg : segments) {
    const bool is_down = seg.repeated_dir == LinkDirection::kDown;
    out.ambiguous_time += seg.second_message - seg.first_message;

    // Lost message (paper: "both syslog state change messages correspond to
    // the correct state change as seen by IS-IS"): both messages match
    // genuine IS-IS transitions of their direction, with the opposite
    // transition — the one syslog lost — in between.
    const LinkDirection same_dir = seg.repeated_dir;
    const LinkDirection opposite_dir =
        is_down ? LinkDirection::kUp : LinkDirection::kDown;
    const bool first_is_genuine = index.any_within(
        seg.link, same_dir, seg.first_message, options.window);
    const bool repeated_is_genuine = index.any_within(
        seg.link, same_dir, seg.second_message, options.window);
    const bool opposite_in_between = index.any_between(
        seg.link, opposite_dir, seg.first_message - options.window,
        seg.second_message + options.window);
    if (first_is_genuine && repeated_is_genuine && opposite_in_between) {
      (is_down ? out.lost_down : out.lost_up)++;
      continue;
    }

    // Spurious: IS-IS says the link was already in the repeated state at the
    // time of the repeated message. Failure boundaries carry detection and
    // flooding jitter, so the containment test gets the matching window as
    // tolerance.
    const IntervalSet* dt = isis_down.find(seg.link);
    const bool link_down_at_second =
        dt != nullptr &&
        (dt->contains(seg.second_message) ||
         dt->overlaps(TimeRange{seg.second_message - options.window,
                                seg.second_message + options.window}));
    if (is_down && link_down_at_second) {
      ++out.spurious_down;
      // Same failure: one IS-IS failure span, padded by the window, covers
      // both messages. Only spans beginning by `lo + window` can cover the
      // earlier message; of those, the latest-ending one decides.
      const std::span<const TimeRange> v = spans[slots.of(seg.link)];
      const TimePoint lo = std::min(seg.first_message, seg.second_message);
      const TimePoint hi = std::max(seg.first_message, seg.second_message);
      const auto end = std::upper_bound(
          v.begin(), v.end(), lo + options.window,
          [](TimePoint t, const TimeRange& r) { return t < r.begin; });
      if (end != v.begin()) {
        const std::size_t last =
            static_cast<std::size_t>(&*(end - 1) - spans.all().data());
        if (reach[last] + options.window > hi) ++out.spurious_down_same_failure;
      }
      continue;
    }
    if (!is_down && !link_down_at_second) {
      ++out.spurious_up;
      continue;
    }

    (is_down ? out.unknown_down : out.unknown_up)++;
  }
  return out;
}

}  // namespace netfail::analysis
