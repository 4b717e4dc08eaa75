#include "src/analysis/reconstruct.hpp"

#include <algorithm>

#include "src/analysis/link_walker.hpp"

namespace netfail::analysis {

Reconstruction reconstruct(std::vector<RawTransition> transitions,
                           const ReconstructOptions& options) {
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const RawTransition& a, const RawTransition& b) {
                     if (a.link != b.link) return a.link < b.link;
                     return a.time < b.time;
                   });

  // One walker per contiguous link range of the sorted stream, all writing
  // into `out`. Links are walked one at a time, so under kDrop the back of
  // out.failures is always the current link's most recent failure.
  Reconstruction out;
  const std::size_t n = transitions.size();
  for (std::size_t i = 0; i < n;) {
    const LinkId link = transitions[i].link;
    LinkWalker::State state;
    LinkWalker walker(link, options, out, out.failures, out.ambiguous, state);
    for (; i < n && transitions[i].link == link; ++i) {
      walker.feed(transitions[i].time, transitions[i].dir);
    }
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
