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
  // A local cache instance, so entries made by other tests through
  // global() cannot mask a miss; identity is checked by pointer.
  ScenarioCache cache;
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

TEST(ScenarioCacheTest, PipelineCacheSeparatesPolicies) {
  // Entries are keyed by the options' value: every field takes part, and
  // two separately built but equal options share one result.
  ScenarioCache cache;
  PipelineOptions base;
  base.scenario = sim::test_scenario(77);
  std::vector<const PipelineResult*> seen;
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    PipelineOptions o = base;
    o.reconstruct.policy = policy;
    seen.push_back(cache.pipeline(o).get());
    EXPECT_EQ(cache.pipeline(o).get(), seen.back());
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << i << " vs " << j;
    }
  }
  PipelineOptions equal;
  equal.scenario = sim::test_scenario(77);
  equal.reconstruct.policy = AmbiguityPolicy::kDrop;
  EXPECT_EQ(cache.pipeline(equal).get(), seen[0]);
  PipelineOptions changed_seed = equal;
  changed_seed.scenario.seed ^= 1;
  EXPECT_NE(cache.pipeline(changed_seed).get(), seen[0]);
}

}  // namespace
}  // namespace netfail::analysis
