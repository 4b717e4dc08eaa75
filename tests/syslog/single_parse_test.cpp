// One parse is equal to the old parses. Every received line is tokenized
// once, when its ReceivedLine is built, and arrival stamping, shard routing
// and extraction read only that stored parse. This suite checks, over the
// seeded fuzz corpus (fuzz_corpus.hpp: rendered, truncated, mutated and
// garbage lines), that each consumer of the stored form agrees with a fresh
// parse by the byte-at-a-time reference parser:
//   - the stored parse equals the reference field for field, the reason
//     rebuilt from its offsets, and its status is the reference's outcome;
//   - extract_line gives the transition built from the reference parse, and
//     counts the same failures;
//   - ShardMap::shard_of gives the shard of the reference parse's link, or
//     the raw-byte / reporter hash fallback.
// No libFuzzer; runs in tier-1 and under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/rng.hpp"
#include "src/config/census.hpp"
#include "src/stream/sharded.hpp"
#include "src/syslog/collector.hpp"
#include "src/syslog/extract.hpp"
#include "tests/syslog/fuzz_corpus.hpp"
#include "tests/syslog/reference_parser.hpp"

namespace netfail::syslog {
namespace {

constexpr std::uint32_t kShards = 4;

/// Links between some of the corpus's hosts and interfaces, so lines
/// resolve, fail to resolve, and route both ways.
LinkCensus corpus_census() {
  const TimeRange period{TimePoint::from_civil(2010, 10, 1),
                         TimePoint::from_civil(2011, 11, 1)};
  LinkCensus census;
  census.add_link(
      CensusEndpoint{"edu042-gw-1", "GigabitEthernet1/2",
                     Ipv4Address(10, 0, 0, 0)},
      CensusEndpoint{"core-7", "TenGigE0/1/0/3", Ipv4Address(10, 0, 0, 1)},
      Ipv4Prefix{Ipv4Address(10, 0, 0, 0), 31}, period, RouterClass::kCpe);
  census.add_link(
      CensusEndpoint{"dc1-agg-12", "POS0/1/0", Ipv4Address(10, 0, 0, 2)},
      CensusEndpoint{"r", "Gi0", Ipv4Address(10, 0, 0, 3)},
      Ipv4Prefix{Ipv4Address(10, 0, 0, 2), 31}, period, RouterClass::kCpe);
  census.add_link(
      CensusEndpoint{"x", "Serial3/0/0.12", Ipv4Address(10, 0, 0, 4)},
      CensusEndpoint{"core-7", "POS0/1/0", Ipv4Address(10, 0, 0, 5)},
      Ipv4Prefix{Ipv4Address(10, 0, 0, 4), 31}, period, RouterClass::kCpe);
  census.finalize();
  return census;
}

class SingleParse : public ::testing::Test {
 protected:
  /// Receive `line` and check every consumer of its stored parse against
  /// the reference parser.
  void check(std::string_view line) {
    // Receive times spread over the study window, so year resolution
    // against received_at is exercised on both sides of the new year.
    const TimePoint received_at = TimePoint::from_unix_seconds(
        rng_.uniform_int(1285891200 /* Oct 1 2010 */, 1320105600));
    const ReceivedLine rec(received_at, std::string(line));
    const Result<Message> ref = parse_message_scalar(line);
    check_parse(rec, ref);
    check_extract(rec, ref);
    check_shard(rec, ref);
    ++checked_;
  }

  void check_parse(const ReceivedLine& rec, const Result<Message>& ref) {
    const std::string_view line = rec.line();
    if (!ref.ok()) {
      EXPECT_EQ(rec.status(), ref.error().code == ErrorCode::kNotFound
                                  ? ParseStatus::kNotFound
                                  : ParseStatus::kParseError)
          << "line: [" << line << "] " << ref.error().to_string();
      return;
    }
    ASSERT_EQ(rec.status(), ParseStatus::kOk) << "line: [" << line << "]";
    const LineParse& p = rec.parse();
    EXPECT_EQ(p.timestamp, ref->timestamp) << "line: [" << line << "]";
    EXPECT_EQ(p.reporter, ref->reporter) << "line: [" << line << "]";
    EXPECT_EQ(p.dialect(), ref->dialect) << "line: [" << line << "]";
    EXPECT_EQ(p.type(), ref->type) << "line: [" << line << "]";
    EXPECT_EQ(p.dir(), ref->dir) << "line: [" << line << "]";
    EXPECT_EQ(p.interface, ref->interface) << "line: [" << line << "]";
    EXPECT_EQ(p.neighbor, ref->neighbor) << "line: [" << line << "]";
    EXPECT_EQ(rec.reason(), ref->reason) << "line: [" << line << "]";
  }

  void check_extract(const ReceivedLine& rec, const Result<Message>& ref) {
    SyslogExtractionStats stats;
    const std::optional<SyslogTransition> tr =
        extract_line(rec, census_, years_, stats);
    EXPECT_EQ(stats.lines_seen, 1u);
    if (!ref.ok()) {
      EXPECT_FALSE(tr.has_value());
      const bool not_found = ref.error().code == ErrorCode::kNotFound;
      EXPECT_EQ(stats.irrelevant_lines, not_found ? 1u : 0u);
      EXPECT_EQ(stats.parse_failures, not_found ? 0u : 1u);
      return;
    }
    const std::optional<LinkId> link =
        census_.find_by_interface(ref->reporter, ref->interface);
    if (!link) {
      EXPECT_FALSE(tr.has_value()) << "line: [" << rec.line() << "]";
      EXPECT_EQ(stats.unresolved_links, 1u);
      return;
    }
    ++resolved_;
    ASSERT_TRUE(tr.has_value()) << "line: [" << rec.line() << "]";
    EXPECT_EQ(tr->time, resolve_year(ref->timestamp, rec.received_at));
    EXPECT_EQ(tr->dir, ref->dir);
    EXPECT_EQ(tr->cls, classify(ref->type));
    EXPECT_EQ(tr->type, ref->type);
    EXPECT_EQ(tr->link, *link);
    EXPECT_EQ(tr->reporter, ref->reporter);
    EXPECT_EQ(tr->reason, ref->reason);
    EXPECT_EQ(stats.parse_failures + stats.irrelevant_lines +
                  stats.unresolved_links,
              0u);
  }

  void check_shard(const ReceivedLine& rec, const Result<Message>& ref) {
    std::uint32_t want = 0;
    if (!ref.ok()) {
      want = static_cast<std::uint32_t>(stream::stable_hash64(rec.line()) %
                                        kShards);
    } else if (const std::optional<LinkId> link = census_.find_by_interface(
                   ref->reporter, ref->interface)) {
      want = map_.shard_of(*link);
    } else {
      want = map_.shard_of_name(ref->reporter.view());
    }
    EXPECT_EQ(map_.shard_of(rec), want) << "line: [" << rec.line() << "]";
  }

  const LinkCensus census_ = corpus_census();
  const stream::ShardMap map_{census_, kShards};
  Rng rng_{0x5EED};
  std::size_t checked_ = 0;
  std::size_t resolved_ = 0;
  YearResolver years_;  // kept across lines, as batch extraction keeps it
};

TEST_F(SingleParse, RenderedLinesAgreeWithTheReference) {
  Rng corpus(0xF00D);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    render_random(corpus, line);
    check(line);
  }
  // The corpus must reach the transition path, not just the failures.
  EXPECT_GT(resolved_, 100u);
}

TEST_F(SingleParse, TruncatedLinesAgreeWithTheReference) {
  Rng corpus(0xBEEF);
  std::string line;
  for (int i = 0; i < 40; ++i) {
    render_random(corpus, line);
    for (std::size_t n = 0; n <= line.size(); ++n) {
      check(std::string_view(line).substr(0, n));
    }
  }
  EXPECT_GT(checked_, 2000u);
}

TEST_F(SingleParse, MutatedLinesAgreeWithTheReference) {
  Rng corpus(0xCAFE);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    render_random(corpus, line);
    mutate_bytes(corpus, line);
    check(line);
  }
}

TEST_F(SingleParse, GarbageLinesAgreeWithTheReference) {
  Rng corpus(0xD00F);
  std::string line;
  for (int i = 0; i < 4000; ++i) {
    garbage_line(corpus, line);
    check(line);
  }
}

TEST_F(SingleParse, ReasonSurvivesCopiesAndMoves) {
  // The reason is stored as offsets into the line, not as a view: a copy
  // owns new bytes, and a short (SSO) string moves its bytes with it.
  const std::string line =
      "<189>Mar  9 04:11:17 r 1: %CLNS-5-ADJCHANGE: ISIS: Adjacency to x "
      "(Gi0) Down, hello-max-age";
  ReceivedLine first(TimePoint{}, line);
  const ReceivedLine copied = first;
  const ReceivedLine moved = std::move(first);
  EXPECT_EQ(copied.reason(), "hello-max-age");
  EXPECT_EQ(moved.reason(), "hello-max-age");
  Collector c;
  c.receive(copied);
  for (int i = 0; i < 100; ++i) c.receive({TimePoint{}, line});  // regrows
  for (const ReceivedLine& rec : c.lines()) {
    EXPECT_EQ(rec.reason(), "hello-max-age");
  }
}

}  // namespace
}  // namespace netfail::syslog
