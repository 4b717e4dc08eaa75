// Determinism guard for the per-seed fan-out: a scenario's event streams
// are a pure function of its parameters. Every stochastic choice flows from
// the seeded Rng (no global mutable RNG state, no address-dependent
// iteration), so the same seed must yield byte-identical collector and
// listener streams whether the simulation runs alone, repeatedly, or
// concurrently with other seeds on other threads.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/sim/network_sim.hpp"

namespace netfail::sim {
namespace {

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.syslog_sent, b.syslog_sent);
  EXPECT_EQ(a.syslog_lost, b.syslog_lost);

  const auto& la = a.collector.lines();
  const auto& lb = b.collector.lines();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    ASSERT_EQ(la[i].received_at, lb[i].received_at) << "syslog line " << i;
    ASSERT_EQ(la[i].line(), lb[i].line()) << "syslog line " << i;
  }

  const auto& ra = a.listener.records();
  const auto& rb = b.listener.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].received_at, rb[i].received_at) << "lsp record " << i;
    ASSERT_EQ(ra[i].bytes, rb[i].bytes) << "lsp record " << i;
  }
}

TEST(SimDeterminism, SameSeedSameEventListOnRepeat) {
  const ScenarioParams params = test_scenario(21);
  const SimulationResult first = run_simulation(params);
  ASSERT_GT(first.collector.size(), 0u);
  ASSERT_GT(first.listener.records().size(), 0u);
  const SimulationResult second = run_simulation(params);
  expect_identical(first, second);
}

TEST(SimDeterminism, CallOrderDoesNotLeakBetweenSeeds) {
  // Interleaving other simulations between two same-seed runs must not
  // perturb the streams (would indicate hidden shared RNG state).
  const SimulationResult a1 = run_simulation(test_scenario(5));
  (void)run_simulation(test_scenario(6));
  (void)run_simulation(test_scenario(7));
  const SimulationResult a2 = run_simulation(test_scenario(5));
  expect_identical(a1, a2);
}

TEST(SimDeterminism, ConcurrentRunsMatchSerialRuns) {
  // Each thread must see exactly the stream a serial run produces.
  const std::vector<std::uint64_t> seeds = {31, 32, 33, 31};
  std::vector<SimulationResult> serial;
  for (const std::uint64_t seed : seeds) {
    serial.push_back(run_simulation(test_scenario(seed)));
  }

  std::vector<SimulationResult> concurrent(seeds.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    threads.emplace_back([&concurrent, &seeds, i] {
      concurrent[i] = run_simulation(test_scenario(seeds[i]));
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    expect_identical(serial[i], concurrent[i]);
  }
  // seeds[0] == seeds[3]: same seed on two different threads, same streams.
  expect_identical(concurrent[0], concurrent[3]);
}

TEST(SimDeterminism, DifferentSeedsDiverge) {
  const SimulationResult a = run_simulation(test_scenario(41));
  const SimulationResult b = run_simulation(test_scenario(42));
  // Not a strict requirement of any single field, but two seeds agreeing on
  // the full syslog stream would mean the seed is ignored.
  bool same = a.collector.size() == b.collector.size();
  if (same) {
    for (std::size_t i = 0; same && i < a.collector.lines().size(); ++i) {
      same = a.collector.lines()[i].line() == b.collector.lines()[i].line();
    }
  }
  EXPECT_FALSE(same);
}

}  // namespace
}  // namespace netfail::sim
