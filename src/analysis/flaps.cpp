#include "src/analysis/flaps.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

namespace netfail::analysis {

FlapAnalysis detect_flaps(std::vector<Failure>& failures) {
  FlapAnalysis out;
  out.total_failures = failures.size();

  // Group indices per link: first-seen buckets behind a flat hash, walked
  // in sorted link order through a slot permutation, without a node
  // allocation per link.
  std::vector<LinkId> bucket_link;
  std::vector<std::vector<std::size_t>> buckets;
  std::unordered_map<LinkId, std::uint32_t> slot_of;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const auto [it, inserted] = slot_of.try_emplace(
        failures[i].link, static_cast<std::uint32_t>(buckets.size()));
    if (inserted) {
      bucket_link.push_back(failures[i].link);
      buckets.emplace_back();
    }
    buckets[it->second].push_back(i);
  }
  std::vector<std::uint32_t> order(buckets.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return bucket_link[a] < bucket_link[b];
  });

  for (const std::uint32_t slot : order) {
    const LinkId link = bucket_link[slot];
    std::vector<std::size_t>& idx = buckets[slot];
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return failures[a].span.begin < failures[b].span.begin;
    });

    std::size_t run_start = 0;
    auto close_run = [&](std::size_t run_end) {  // [run_start, run_end)
      const std::size_t n = run_end - run_start;
      if (n >= kFlapMinFailures) {
        FlapEpisode ep;
        ep.link = link;
        ep.failure_count = n;
        ep.span = TimeRange{failures[idx[run_start]].span.begin,
                            failures[idx[run_end - 1]].span.end};
        out.episodes.push_back(ep);
        out.flap_ranges[link].add(ep.span);
        out.failures_in_episodes += n;
        for (std::size_t k = run_start; k < run_end; ++k) {
          failures[idx[k]].in_flap_episode = true;
        }
      }
      run_start = run_end;
    };

    for (std::size_t k = 1; k < idx.size(); ++k) {
      if (!extends_flap_run(failures[idx[k - 1]].span.end,
                            failures[idx[k]].span.begin)) {
        close_run(k);
      }
    }
    close_run(idx.size());
  }
  return out;
}

}  // namespace netfail::analysis
