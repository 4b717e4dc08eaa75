#include "src/sim/network_sim.hpp"

#include <gtest/gtest.h>

#include "src/isis/pdu.hpp"
#include "src/syslog/message.hpp"

namespace netfail::sim {
namespace {

class NetworkSimTest : public ::testing::Test {
 protected:
  static const SimulationResult& result() {
    static const SimulationResult r = run_simulation(test_scenario(11));
    return r;
  }
};

TEST_F(NetworkSimTest, ProducesBothStreams) {
  EXPECT_GT(result().listener.records().size(), 100u);
  EXPECT_GT(result().collector.size(), 100u);
  EXPECT_GT(result().truth.failures().size(), 50u);
  EXPECT_GT(result().events_processed, 500u);
}

TEST_F(NetworkSimTest, AllLspsDecode) {
  for (const isis::LspRecord& rec : result().listener.records()) {
    const auto lsp = isis::Lsp::decode(rec.bytes.span());
    ASSERT_TRUE(lsp.ok()) << lsp.error().to_string();
    EXPECT_FALSE(lsp->hostname.empty());
  }
}

TEST_F(NetworkSimTest, AllSyslogLinesParse) {
  for (const syslog::ReceivedLine& line : result().collector.lines()) {
    ASSERT_EQ(line.status(), syslog::ParseStatus::kOk) << line.line();
  }
}

TEST_F(NetworkSimTest, SyslogLossAccounted) {
  EXPECT_EQ(result().collector.size() + result().syslog_lost,
            result().syslog_sent);
  EXPECT_GT(result().syslog_lost, 0u);
}

TEST_F(NetworkSimTest, ListenerGapsConfigured) {
  EXPECT_FALSE(result().truth.listener_gaps().empty());
  EXPECT_EQ(result().truth.listener_gaps().ranges().size(),
            static_cast<std::size_t>(test_scenario(11).listener_gap_count));
}

TEST_F(NetworkSimTest, TicketsMatchLongFailures) {
  std::size_t long_failures = 0;
  for (const TrueFailure& f : result().truth.failures()) {
    if (f.ticketed) ++long_failures;
  }
  EXPECT_EQ(result().tickets.size(), long_failures);
}

TEST_F(NetworkSimTest, VirtualRefreshesCounted) {
  EXPECT_GT(result().listener.total_updates(),
            result().listener.records().size());
}

TEST_F(NetworkSimTest, StreamsAreTimeOrdered) {
  const auto& records = result().listener.records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].received_at, records[i].received_at);
  }
  const auto& lines = result().collector.lines();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_LE(lines[i - 1].received_at, lines[i].received_at);
  }
}

TEST_F(NetworkSimTest, Deterministic) {
  const SimulationResult again = run_simulation(test_scenario(11));
  ASSERT_EQ(again.listener.records().size(),
            result().listener.records().size());
  ASSERT_EQ(again.collector.size(), result().collector.size());
  for (std::size_t i = 0; i < 50 && i < again.collector.size(); ++i) {
    EXPECT_EQ(again.collector.lines()[i].line(),
              result().collector.lines()[i].line());
  }
}

TEST_F(NetworkSimTest, DifferentSeedsDiffer) {
  const SimulationResult other = run_simulation(test_scenario(12));
  EXPECT_NE(other.truth.failures().size(), result().truth.failures().size());
}

TEST_F(NetworkSimTest, NoLspsDuringListenerGaps) {
  const IntervalSet& gaps = result().truth.listener_gaps();
  for (const isis::LspRecord& rec : result().listener.records()) {
    EXPECT_FALSE(gaps.contains(rec.received_at));
  }
}

TEST_F(NetworkSimTest, PseudoFailuresEmitNoLsp) {
  // Sum of adjacency-visible failures should bound the number of
  // change-driven LSPs loosely: every pseudo-failure contributes syslog but
  // no LSP. Sanity: syslog line count exceeds LSP records substantially in
  // the test scenario (4 messages/failure vs throttled LSPs).
  EXPECT_GT(result().collector.size(), 0u);
}

}  // namespace
}  // namespace netfail::sim
