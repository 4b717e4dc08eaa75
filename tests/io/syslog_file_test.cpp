#include "src/io/syslog_file.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/file_bytes.hpp"
#include "src/syslog/message.hpp"
#include "tests/io/fifo_feed.hpp"
#include "tests/io/temp_dir.hpp"

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

// ---- the lane reader against a per-line oracle ---------------------------

struct Loaded {
  syslog::Collector collector;
  SyslogReadStats stats;
};

/// The reader's contract, one line at a time: std::getline, one trailing
/// '\r' dropped, blank lines skipped, every kept line stamped in file order
/// by one ArrivalCursor.
Loaded per_line_oracle(const std::string& text, TimePoint start) {
  Loaded out;
  std::istringstream in(text);
  syslog::ArrivalCursor cursor(start);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) {
      ++out.stats.blank;
      continue;
    }
    ++out.stats.lines;
    syslog::ReceivedLine rec = cursor.stamp(std::move(line));
    if (rec.status() != syslog::ParseStatus::kOk) ++out.stats.unparsable;
    out.collector.receive(std::move(rec));
  }
  return out;
}

const TimePoint kStart = TimePoint::from_civil(2011, 2, 25);

/// `text` read from a regular file (mapped) and from a FIFO (read to its
/// end) gives what the istream gave: the same lines, arrivals and counts.
void expect_files_match_stream(const std::string& text, const Loaded& want) {
  TempDir dir;
  const std::string file = (dir.path() / "messages.log").string();
  std::ofstream(file, std::ios::binary) << text;
  Loaded from_file;
  Result<syslog::Collector> read_file =
      read_syslog_file(file, kStart, &from_file.stats);
  Loaded from_fifo;
  Result<syslog::Collector> read_fifo = read_through_fifo(
      dir.path() / "messages.fifo", text, [&](const std::string& path) {
        return read_syslog_file(path, kStart, &from_fifo.stats);
      });
  ASSERT_TRUE(read_file.ok());
  ASSERT_TRUE(read_fifo.ok());
  from_file.collector = std::move(*read_file);
  from_fifo.collector = std::move(*read_fifo);
  for (const Loaded* got : {&from_file, &from_fifo}) {
    EXPECT_EQ(got->stats.lines, want.stats.lines);
    EXPECT_EQ(got->stats.blank, want.stats.blank);
    EXPECT_EQ(got->stats.unparsable, want.stats.unparsable);
    ASSERT_EQ(got->collector.size(), want.collector.size());
    for (std::size_t i = 0; i < want.collector.size(); ++i) {
      const syslog::ReceivedLine& g = got->collector.lines()[i];
      const syslog::ReceivedLine& w = want.collector.lines()[i];
      ASSERT_EQ(g.line(), w.line()) << "line " << i;
      EXPECT_EQ(g.received_at, w.received_at) << "line " << i;
      EXPECT_EQ(g.status(), w.status()) << "line " << i;
    }
  }
}

void expect_matches_oracle(const std::string& text) {
  SCOPED_TRACE(testing::Message() << "input of " << text.size() << " bytes");
  const Loaded want = per_line_oracle(text, kStart);
  std::istringstream in(text);
  Loaded got;
  Result<syslog::Collector> read = read_syslog_file(in, kStart, &got.stats);
  ASSERT_TRUE(read.ok());
  got.collector = std::move(*read);
  expect_files_match_stream(text, got);

  EXPECT_EQ(got.stats.lines, want.stats.lines);
  EXPECT_EQ(got.stats.blank, want.stats.blank);
  EXPECT_EQ(got.stats.unparsable, want.stats.unparsable);
  ASSERT_EQ(got.collector.size(), want.collector.size());
  for (std::size_t i = 0; i < want.collector.size(); ++i) {
    const syslog::ReceivedLine& g = got.collector.lines()[i];
    const syslog::ReceivedLine& w = want.collector.lines()[i];
    ASSERT_EQ(g.line(), w.line()) << "line " << i;
    EXPECT_EQ(g.received_at, w.received_at) << "line " << i;
    EXPECT_EQ(g.status(), w.status()) << "line " << i;
    EXPECT_EQ(g.parse().timestamp, w.parse().timestamp) << "line " << i;
    EXPECT_EQ(g.parse().reporter, w.parse().reporter) << "line " << i;
    EXPECT_EQ(g.reason(), w.reason()) << "line " << i;
  }
  EXPECT_EQ(got.collector.lines().capacity(), got.collector.size());
}

/// Messages whose timestamps go backwards, so the arrival clamp carries
/// state from one line to the next (and so across every range boundary),
/// mixed with CRLF, '\r'-only, blank and unparsable lines.
std::string mixed_capture() {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += sample_message(1 + (i * 7) % 5, (i * 5) % 24).render(i);
    text += i % 3 == 0 ? "\r\n" : "\n";
    if (i % 4 == 1) text += "\r\n";
    if (i % 4 == 2) text += "\n\n";
    if (i % 5 == 3) text += "garbage that is no syslog\n\r\r\n";
  }
  return text;
}

TEST(SyslogFileLanes, EveryCutPositionMatchesThePerLineReader) {
  // A leading line of growing length moves every range boundary across
  // every byte of the capture: CRLF pairs, '\r'-only lines and runs of
  // blank lines all land on a cut somewhere in the sweep.
  const std::string body = mixed_capture();
  for (std::size_t pad = 0; pad <= 2 * body.size() / kReadLanes;
       ++pad) {
    expect_matches_oracle(std::string(pad, 'p') + "\n" + body);
    if (HasFatalFailure()) return;
  }
}

TEST(SyslogFileLanes, CrLfSplitAcrossAFileThatIsAllCarriageReturns) {
  expect_matches_oracle("\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\n");
  expect_matches_oracle("\r\r\r\r\r\r\r\r\n\r\n");
  expect_matches_oracle("\n\n\n\n\n\n\n\n\n\n\n\n");
}

TEST(SyslogFileLanes, NoTrailingNewline) {
  expect_matches_oracle(sample_message(1, 5).render(1) + "\n" +
                        sample_message(2, 5).render(2));
  expect_matches_oracle(sample_message(1, 5).render(1) + "\n" +
                        sample_message(2, 5).render(2) + "\r");
}

TEST(SyslogFileLanes, EmptyFile) {
  expect_matches_oracle("");
  SyslogReadStats stats;
  std::istringstream in("");
  const auto loaded = read_syslog_file(in, kStart, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(stats.lines + stats.blank + stats.unparsable, 0u);
}

TEST(SyslogFileLanes, FewerLinesThanLanes) {
  static_assert(kReadLanes > 2);
  expect_matches_oracle(sample_message(3, 1).render(1) + "\n");
  expect_matches_oracle(sample_message(3, 1).render(1) + "\n" +
                        sample_message(2, 1).render(2) + "\n");
  expect_matches_oracle("x");
}

TEST(SyslogFileLanes, OneLineLongerThanAWholeRange) {
  // The long line spans the nominal position of every later cut, so the
  // ranges after it are empty, and the short lines around it still stamp
  // against one cursor.
  const std::string longest(8 * 1024, 'L');
  expect_matches_oracle(sample_message(4, 4).render(1) + "\n" + longest +
                        "\n" + sample_message(2, 2).render(2) + "\n");
  expect_matches_oracle(longest + "\r\n" + sample_message(2, 2).render(2));
  expect_matches_oracle(longest);
}

TEST(SyslogFileLanes, PathAndStreamOverloadsAgree) {
  const std::string text = mixed_capture();
  const std::string path = testing::TempDir() + "syslog_lanes_overloads.log";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  SyslogReadStats from_path_stats;
  const auto from_path = read_syslog_file(path, kStart, &from_path_stats);
  ASSERT_TRUE(from_path.ok());
  const Loaded want = per_line_oracle(text, kStart);
  ASSERT_EQ(from_path->size(), want.collector.size());
  for (std::size_t i = 0; i < want.collector.size(); ++i) {
    EXPECT_EQ(from_path->lines()[i].line(), want.collector.lines()[i].line());
    EXPECT_EQ(from_path->lines()[i].received_at,
              want.collector.lines()[i].received_at);
  }
  EXPECT_EQ(from_path_stats.blank, want.stats.blank);
  EXPECT_EQ(from_path_stats.unparsable, want.stats.unparsable);
}

TEST(SyslogFile, LinesShareTheFileBufferAndOutliveTheCollector) {
  const std::string first = sample_message(1, 5).render(1);
  const std::string second = sample_message(2, 5).render(2);
  std::vector<syslog::ReceivedLine> kept;
  {
    std::istringstream in(first + "\r\n" + second + "\n");
    auto loaded = read_syslog_file(in, kStart);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), 2u);
    // Both lines lie in one buffer, the CRLF between them.
    const std::string_view a = loaded->lines()[0].line();
    EXPECT_EQ(a.data() + a.size() + 2, loaded->lines()[1].line().data());
    kept.push_back(loaded->lines()[1]);
  }
  // The collector (and the other line) are gone; the copy still reads.
  EXPECT_EQ(kept[0].line(), second);
  EXPECT_EQ(kept[0].status(), syslog::ParseStatus::kOk);
  EXPECT_EQ(kept[0].reason(), "interface state down");
}

TEST(SyslogFile, MissingFileReported) {
  EXPECT_FALSE(read_syslog_file("/nonexistent/path.log",
                                TimePoint::from_civil(2011, 1, 1))
                   .ok());
}

}  // namespace
}  // namespace netfail::io
