#include "src/analysis/reconstruct.hpp"

#include <algorithm>
#include <span>

#include "src/analysis/dense_links.hpp"
#include "src/analysis/link_walker.hpp"

namespace netfail::analysis {

Reconstruction reconstruct(std::vector<RawTransition> transitions,
                           const ReconstructOptions& options) {
  // Ordered by (link, time), stably: a counting sort groups the links in
  // LinkId order keeping input order within each, and a link's range is
  // sorted by time only when it is not in time order already (a listener's
  // stream nearly always is).
  const LinkSlots slots = LinkSlots::covering(
      transitions.size(), [&](std::size_t i) { return transitions[i].link; });
  Buckets<RawTransition> by_link(
      slots.size(), transitions.size(),
      [&](std::size_t i) { return slots.of(transitions[i].link); },
      [&](std::size_t i) { return transitions[i]; });
  std::vector<RawTransition>().swap(transitions);  // grouped: free the input
  const auto by_time = [](const RawTransition& a, const RawTransition& b) {
    return a.time < b.time;
  };

  // One walker per link, all writing into `out`. Links are walked one at a
  // time, so under kDrop the back of out.failures is always the current
  // link's most recent failure.
  Reconstruction out;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::span<RawTransition> range = by_link[s];
    if (range.empty()) continue;
    if (!std::is_sorted(range.begin(), range.end(), by_time)) {
      std::stable_sort(range.begin(), range.end(), by_time);
    }
    LinkWalker::State state;
    LinkWalker walker(slots.link(s), options, out, out.failures, out.ambiguous,
                      state);
    for (const RawTransition& tr : range) walker.feed(tr.time, tr.dir);
    walker.finish();
  }

  std::sort(out.failures.begin(), out.failures.end(),
            [](const Failure& a, const Failure& b) {
              if (a.span.begin != b.span.begin) return a.span.begin < b.span.begin;
              return a.link < b.link;
            });
  return out;
}

Reconstruction reconstruct_from_syslog(
    const std::vector<syslog::SyslogTransition>& transitions,
    const ReconstructOptions& options) {
  std::vector<RawTransition> raw;
  raw.reserve(transitions.size());
  for (const syslog::SyslogTransition& tr : transitions) {
    if (tr.cls != syslog::MessageClass::kIsisAdjacency) continue;
    if (!tr.link.valid()) continue;
    raw.push_back(RawTransition{tr.link, tr.time, tr.dir});
  }
  Reconstruction r = reconstruct(std::move(raw), options);
  for (Failure& f : r.failures) f.source = Source::kSyslog;
  return r;
}

Reconstruction reconstruct_from_isis(
    const std::vector<isis::IsisTransition>& transitions,
    const ReconstructOptions& options) {
  std::vector<RawTransition> raw;
  raw.reserve(transitions.size());
  for (const isis::IsisTransition& tr : transitions) {
    if (!tr.link.valid() || tr.multilink) continue;
    raw.push_back(RawTransition{tr.link, tr.time, tr.dir});
  }
  Reconstruction r = reconstruct(std::move(raw), options);
  for (Failure& f : r.failures) f.source = Source::kIsis;
  return r;
}

}  // namespace netfail::analysis
