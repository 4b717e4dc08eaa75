#include "src/io/syslog_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/syslog/message.hpp"

namespace netfail::io {
namespace {

syslog::Message sample_message(int day, int hour) {
  syslog::Message m;
  m.timestamp = TimePoint::from_civil(2011, 3, day, hour, 0, 0);
  m.reporter = "edu042-gw-1";
  m.dialect = RouterOs::kIos;
  m.type = syslog::MessageType::kIsisAdjChange;
  m.dir = LinkDirection::kDown;
  m.interface = "GigabitEthernet0/1";
  m.neighbor = "lax-core-1";
  m.reason = "interface state down";
  return m;
}

TEST(SyslogFile, RoundTrip) {
  syslog::Collector original;
  original.receive({TimePoint::from_civil(2011, 3, 1, 5, 0, 1),
                   sample_message(1, 5).render(1)});
  original.receive({TimePoint::from_civil(2011, 3, 2, 6, 0, 1),
                   sample_message(2, 6).render(2)});

  std::stringstream stream;
  write_syslog_file(original, stream);

  SyslogReadStats stats;
  const auto loaded =
      read_syslog_file(stream, TimePoint::from_civil(2011, 2, 25), &stats);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(stats.lines, 2u);
  EXPECT_EQ(stats.unparsable, 0u);
  EXPECT_EQ(loaded->lines()[0].line(), original.lines()[0].line());
  EXPECT_EQ(loaded->lines()[1].line(), original.lines()[1].line());
  // Reconstructed arrival times follow the message timestamps.
  EXPECT_EQ(to_civil(loaded->lines()[0].received_at).day, 1);
  EXPECT_EQ(to_civil(loaded->lines()[1].received_at).day, 2);
}

TEST(SyslogFile, MonotonicArrivalEnforced) {
  // Out-of-order timestamps (clock skew between routers) must not break the
  // collector's monotonic invariant.
  std::stringstream stream;
  stream << sample_message(2, 6).render(1) << "\n"
         << sample_message(1, 5).render(2) << "\n";  // earlier timestamp
  const auto loaded =
      read_syslog_file(stream, TimePoint::from_civil(2011, 2, 25));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_LE(loaded->lines()[0].received_at, loaded->lines()[1].received_at);
}

TEST(SyslogFile, UnparsableLinesKept) {
  std::stringstream stream;
  stream << "not a syslog line at all\n"
         << sample_message(1, 5).render(1) << "\n";
  SyslogReadStats stats;
  const auto loaded =
      read_syslog_file(stream, TimePoint::from_civil(2011, 2, 25), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(stats.unparsable, 1u);
}

TEST(SyslogFile, BlankAndCrLfHandled) {
  std::stringstream stream;
  stream << "\n" << sample_message(1, 5).render(1) << "\r\n\n";
  SyslogReadStats stats;
  const auto loaded =
      read_syslog_file(stream, TimePoint::from_civil(2011, 2, 25), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(stats.blank, 2u);
  EXPECT_FALSE(loaded->lines()[0].line().ends_with("\r"));
}

TEST(SyslogFile, StoreIsSizedToTheKeptLines) {
  // Blank and CR-only lines are not stored, so the up-front reserve must
  // not count them (a file of newlines would otherwise reserve without
  // bound); an unterminated last line is stored and counted.
  std::stringstream stream;
  stream << "\n\r\n" << sample_message(1, 5).render(1) << "\r\n\r\r\n\n"
         << "x\n\n\n" << sample_message(2, 5).render(2);
  SyslogReadStats stats;
  const auto loaded =
      read_syslog_file(stream, TimePoint::from_civil(2011, 2, 25), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 4u);  // two messages, "\r" and "x"
  EXPECT_EQ(loaded->lines().capacity(), loaded->size());
}

TEST(SyslogFile, MissingFileReported) {
  EXPECT_FALSE(read_syslog_file("/nonexistent/path.log",
                                TimePoint::from_civil(2011, 1, 1))
                   .ok());
}

}  // namespace
}  // namespace netfail::io
