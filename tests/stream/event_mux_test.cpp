#include "src/stream/event_mux.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace netfail::stream {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

syslog::ReceivedLine line_at(std::int64_t s) {
  return {at(s), "line@" + std::to_string(s)};
}
isis::LspRecord lsp_at(std::int64_t s) {
  const std::uint8_t pdu[] = {0x83};
  return {at(s), ByteSlice::copy_of(pdu)};
}

TEST(EventMux, MergesByArrivalTime) {
  const std::vector<syslog::ReceivedLine> lines = {line_at(1), line_at(4),
                                                   line_at(9)};
  const std::vector<isis::LspRecord> lsps = {lsp_at(2), lsp_at(3), lsp_at(8)};
  EventMux mux = EventMux::over_vectors(lines, lsps);

  std::vector<std::int64_t> times;
  std::vector<EventKind> kinds;
  while (auto ev = mux.next()) {
    times.push_back(ev->time.unix_seconds());
    kinds.push_back(ev->kind());
  }
  EXPECT_EQ(times, (std::vector<std::int64_t>{1, 2, 3, 4, 8, 9}));
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{EventKind::kSyslogLine, EventKind::kLsp,
                                    EventKind::kLsp, EventKind::kSyslogLine,
                                    EventKind::kLsp, EventKind::kSyslogLine}));
  EXPECT_EQ(mux.stats().syslog_events, 3u);
  EXPECT_EQ(mux.stats().lsp_events, 3u);
  EXPECT_EQ(mux.stats().out_of_order_dropped, 0u);
}

TEST(EventMux, TiesGoToSyslog) {
  const std::vector<syslog::ReceivedLine> lines = {line_at(5)};
  const std::vector<isis::LspRecord> lsps = {lsp_at(5)};
  EventMux mux = EventMux::over_vectors(lines, lsps);
  auto first = mux.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind(), EventKind::kSyslogLine);
  auto second = mux.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind(), EventKind::kLsp);
  EXPECT_FALSE(mux.next().has_value());
}

TEST(EventMux, DropsTimeTravelWithinOneSource) {
  // The third line regresses behind the second; it must be dropped and
  // counted, and the remainder of the stream must keep flowing.
  const std::vector<syslog::ReceivedLine> lines = {line_at(10), line_at(20),
                                                   line_at(15), line_at(25)};
  const std::vector<isis::LspRecord> no_lsps;
  EventMux mux = EventMux::over_vectors(lines, no_lsps);
  std::vector<std::int64_t> times;
  while (auto ev = mux.next()) times.push_back(ev->time.unix_seconds());
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 20, 25}));
  EXPECT_EQ(mux.stats().out_of_order_dropped, 1u);
  EXPECT_EQ(mux.stats().syslog_events, 3u);
}

TEST(EventMux, SingleSourceAndEmpty) {
  const std::vector<syslog::ReceivedLine> no_lines;
  const std::vector<isis::LspRecord> no_lsps;
  {
    EventMux mux = EventMux::over_vectors(no_lines, no_lsps);
    EXPECT_FALSE(mux.next().has_value());
  }
  {
    const std::vector<isis::LspRecord> lsps = {lsp_at(1), lsp_at(2)};
    EventMux mux = EventMux::over_vectors(no_lines, lsps);
    std::size_t n = 0;
    while (mux.next()) ++n;
    EXPECT_EQ(n, 2u);
  }
}

TEST(EventMux, EqualArrivalsWithinSourceAreKept) {
  // Nondecreasing, not strictly increasing: duplicates of the same second
  // are legal (a busy syslog host logs many lines per second).
  const std::vector<syslog::ReceivedLine> lines = {line_at(7), line_at(7),
                                                   line_at(7)};
  const std::vector<isis::LspRecord> no_lsps;
  EventMux mux = EventMux::over_vectors(lines, no_lsps);
  std::size_t n = 0;
  while (mux.next()) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(mux.stats().out_of_order_dropped, 0u);
}

}  // namespace
}  // namespace netfail::stream
