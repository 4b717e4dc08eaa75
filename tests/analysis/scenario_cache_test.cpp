#include "src/analysis/scenario_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/analysis/reconstruct.hpp"
#include "src/sim/network_sim.hpp"

namespace netfail::analysis {
namespace {

TEST(ScenarioCacheTest, CaptureComputedOncePerKey) {
  ScenarioCache cache;
  // Local cache instance so global() traffic from other tests can't skew
  // the hit/miss accounting... but hits()/misses() are process-global
  // metrics counters, so measure deltas and compare pointers instead.
  const auto a = cache.capture(sim::test_scenario(77));
  const auto b = cache.capture(sim::test_scenario(77));
  EXPECT_EQ(a.get(), b.get()) << "same params must share one capture";
  const auto c = cache.capture(sim::test_scenario(78));
  EXPECT_NE(a.get(), c.get()) << "different seed must not collide";
  cache.clear();
  const auto d = cache.capture(sim::test_scenario(77));
  EXPECT_NE(a.get(), d.get()) << "clear() drops entries";
  // The old shared_ptr stays valid after clear: readers are never yanked.
  EXPECT_EQ(a->sim.events_processed, d->sim.events_processed);
}

TEST(ScenarioCacheTest, ConcurrentSameKeyRequestsShareOneComputation) {
  ScenarioCache cache;
  std::vector<std::shared_ptr<const PipelineCapture>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&cache, &got, i] { got[i] = cache.capture(sim::test_scenario(91)); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[0].get(), got[i].get()) << "request " << i;
  }
}

TEST(ScenarioCacheTest, PipelineOptionsHashSeparatesPolicies) {
  PipelineOptions base;
  std::uint64_t seen[4] = {};
  int n = 0;
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    PipelineOptions o = base;
    o.reconstruct.policy = policy;
    seen[n++] = pipeline_options_hash(o);
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(seen[i], seen[j]) << i << " vs " << j;
    }
  }
  PipelineOptions changed_seed;
  changed_seed.scenario.seed ^= 1;
  EXPECT_NE(pipeline_options_hash(base), pipeline_options_hash(changed_seed));
  EXPECT_EQ(pipeline_options_hash(base), pipeline_options_hash(PipelineOptions{}));
}

}  // namespace
}  // namespace netfail::analysis
