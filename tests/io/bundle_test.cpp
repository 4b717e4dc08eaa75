// Tests for the capture bundle and its pieces: config directories, ticket
// files, interval files, a miner round-trip through the on-disk archive, and
// io::read_bundle / io::write_bundle — a round trip that renders the same
// comparison as the in-memory pipeline, hostile META / listener-gap files
// that must fail the load instead of crashing or being ignored, and the
// error a bundle with two bad files reports however its threads interleave.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"
#include "src/config/miner.hpp"
#include "src/io/bundle.hpp"
#include "src/io/config_dir.hpp"
#include "src/io/interval_file.hpp"
#include "src/io/lsp_capture.hpp"
#include "src/io/ticket_file.hpp"
#include "src/topology/generator.hpp"
#include "tests/io/temp_dir.hpp"

namespace netfail::io {
namespace {

namespace fs = std::filesystem;

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

TEST(ConfigDir, RoundTripThroughMiner) {
  const Topology topo = generate_topology(TopologyParams{}.scaled_down(8));
  const TimeRange period{TimePoint::from_civil(2011, 1, 1),
                         TimePoint::from_civil(2011, 3, 1)};
  const ConfigArchive original = generate_archive(topo, period);

  TempDir dir;
  ASSERT_TRUE(write_config_dir(original, dir.path().string()).ok());

  ConfigDirStats stats;
  const auto loaded = read_config_dir(dir.path().string(), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.files, original.size());
  EXPECT_EQ(stats.skipped, 0u);

  // The census mined from disk matches the census mined in memory.
  const LinkCensus from_disk = mine_archive(*loaded, period);
  const LinkCensus from_memory = mine_archive(original, period);
  ASSERT_EQ(from_disk.size(), from_memory.size());
  for (const CensusLink& l : from_memory.links()) {
    const auto found = from_disk.find_by_name(l.name);
    ASSERT_TRUE(found.has_value()) << l.name;
    EXPECT_EQ(from_disk.link(*found).subnet, l.subnet);
    EXPECT_EQ(from_disk.link(*found).multilink, l.multilink);
  }
}

TEST(ConfigDir, SkipsForeignFiles) {
  TempDir dir;
  fs::create_directories(dir.path() / "router1");
  {
    std::ofstream(dir.path() / "router1" / "1000.cfg") << "hostname router1\n";
    std::ofstream(dir.path() / "router1" / "README.txt") << "not a config\n";
    std::ofstream(dir.path() / "router1" / "garbage.cfg") << "hostname x\n";
    std::ofstream(dir.path() / "stray.cfg") << "hostname stray\n";
  }
  ConfigDirStats stats;
  const auto loaded = read_config_dir(dir.path().string(), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.files, 1u);   // only router1/1000.cfg qualifies
  EXPECT_EQ(stats.skipped, 3u); // txt, non-numeric stem, top-level file
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->files()[0].router_hostname, "router1");
  EXPECT_EQ(loaded->files()[0].captured_at, at(1000));
}

TEST(ConfigDir, StemsPast64BitsOrTheInputRangeAreSkipped) {
  TempDir dir;
  fs::create_directories(dir.path() / "router1");
  {
    std::ofstream(dir.path() / "router1" / "1000.cfg") << "hostname router1\n";
    // 2^64 + 1000 seconds once wrapped to 1000.
    std::ofstream(dir.path() / "router1" / "18446744073709552616.cfg")
        << "hostname router1\n";
    // 2^53 seconds: a 64-bit count, but past the accepted range.
    std::ofstream(dir.path() / "router1" / "9007199254740992.cfg")
        << "hostname router1\n";
  }
  ConfigDirStats stats;
  const auto loaded = read_config_dir(dir.path().string(), &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.skipped, 2u);
}

TEST(ConfigDir, MissingRootReported) {
  EXPECT_FALSE(read_config_dir("/nonexistent/archive").ok());
}

TEST(TicketFile, RoundTrip) {
  TicketStore store;
  store.file("a:1|b:2", TimeRange{at(100), at(50'000)}, "fiber cut near X");
  store.file("c:1|d:2", TimeRange{at(999), at(2000)}, "maintenance");
  std::stringstream stream;
  write_ticket_file(store, stream);

  TicketReadStats stats;
  const auto loaded = read_ticket_file(stream, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->tickets()[0].link_name, "a:1|b:2");
  EXPECT_EQ(loaded->tickets()[0].outage, (TimeRange{at(100), at(50'000)}));
  EXPECT_EQ(loaded->tickets()[1].summary, "maintenance");
  // Corroboration still works after the round trip.
  EXPECT_TRUE(loaded->corroborates("a:1|b:2", TimeRange{at(200), at(40'000)}));
}

TEST(TicketFile, MalformedRowsSkipped) {
  std::stringstream stream;
  stream << "good\t1000\t2000\tok\n"
         << "bad line without tabs\n"
         << "backwards\t2000\t1000\toops\n"
         << "nonnumeric\tx\ty\tz\n";
  TicketReadStats stats;
  const auto loaded = read_ticket_file(stream, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 3u);
}

TEST(TicketFile, TimesOutsideTheInputRangeAreMalformed) {
  // 2^63 once wrapped negative on the int64 cast; 2^64 + 1000 wrapped to
  // 1000 and filed a ticket for [1000, 2000).
  std::stringstream stream;
  stream << "wraps\t9223372036854775808\t9223372036854775809\tx\n"
         << "overflow\t18446744073709552616\t2000\tx\n"
         << "range\t1000\t9007199254740992\tx\n"  // end = 2^53
         << "edge\t1000\t9007199254740991\tok\n";
  TicketReadStats stats;
  const auto loaded = read_ticket_file(stream, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(stats.malformed, 3u);
  EXPECT_EQ(stats.rows, 1u);
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->tickets()[0].link_name, "edge");
}

TEST(IntervalFile, RoundTrip) {
  IntervalSet set;
  set.add(TimeRange{at(10), at(20)});
  set.add(TimeRange{at(100), at(300)});
  std::stringstream stream;
  write_interval_file(set, stream);
  const auto loaded = read_interval_file(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, set);
}

TEST(IntervalFile, BadRowRejected) {
  std::stringstream stream;
  stream << "1000\t2000\n" << "oops\n";
  EXPECT_FALSE(read_interval_file(stream).ok());
}

TEST(IntervalFile, OutOfRangeOrReversedGapFailsTheRead) {
  for (const char* row : {
           "9223372036854775808\t9223372036854775809\n",  // 2^63: wrapped
           "18446744073709551617\t2000\n",  // 2^64 + 1: wrapped to 1
           "1000\t9007199254740992\n",      // end = 2^53
           "2000\t1000\n",                  // reversed: once dropped silently
       }) {
    std::stringstream stream;
    stream << "10\t20\n" << row;
    const auto loaded = read_interval_file(stream);
    ASSERT_FALSE(loaded.ok()) << row;
    EXPECT_EQ(loaded.error().code, ErrorCode::kParseError) << row;
  }
}

TEST(IntervalFile, EmptyFileIsEmptySet) {
  std::stringstream stream;
  const auto loaded = read_interval_file(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

// ---- capture bundles -------------------------------------------------------------

/// The small simulated scenario `netfail simulate --small --seed 11` writes.
analysis::PipelineOptions small_options() {
  analysis::PipelineOptions options;
  options.scenario = sim::test_scenario();
  options.scenario.seed = 11;
  return options;
}

/// A bundle written from that scenario into a fresh directory.
class CaptureBundle : public ::testing::Test {
 protected:
  void SetUp() override {
    const analysis::PipelineOptions options = small_options();
    capture_ = analysis::ScenarioCache::global().capture(options.scenario);
    const sim::SimulationResult& sim = capture_->sim;
    ASSERT_TRUE(write_bundle(dir_.path().string(), capture_->period,
                             sim.collector, sim.listener.records(),
                             generate_archive(sim.topology, capture_->period),
                             sim.tickets, sim.truth.listener_gaps())
                    .ok());
  }

  std::string dir() const { return dir_.path().string(); }
  void append(const char* file, const std::string& text) const {
    std::ofstream(dir_.path() / file, std::ios::app) << text;
  }

  TempDir dir_;
  std::shared_ptr<const analysis::PipelineCapture> capture_;
};

TEST_F(CaptureBundle, RoundTripRendersTheInMemoryComparison) {
  const Result<Bundle> b = read_bundle(dir());
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  const sim::SimulationResult& sim = capture_->sim;
  EXPECT_EQ(b->period, capture_->period);
  EXPECT_EQ(b->collector.size(), sim.collector.size());
  EXPECT_EQ(b->lsp_records.size(), sim.listener.records().size());
  EXPECT_EQ(b->tickets.size(), sim.tickets.size());
  EXPECT_EQ(b->listener_gaps, sim.truth.listener_gaps());
  EXPECT_EQ(b->census.size(), capture_->census.size());
  EXPECT_GT(b->config_files, 0u);

  // The analysis over the files is the analysis over the simulation.
  const auto in_memory =
      analysis::ScenarioCache::global().pipeline(small_options());
  const analysis::AnalysisResult from_files = analysis::run_analysis(
      {b->period, b->census, b->collector, b->lsp_records, b->tickets,
       b->listener_gaps});
  EXPECT_EQ(analysis::render_comparison(from_files, b->census),
            analysis::render_comparison(*in_memory, in_memory->census));
}

TEST_F(CaptureBundle, RecordsAndLinesCopiedOutOutliveTheBundle) {
  // The bundle's records and lines are slices of their files' mappings;
  // copies share those mappings, so they stay readable (and clean under
  // ASan) once the Bundle that loaded them is gone.
  std::vector<syslog::ReceivedLine> lines;
  std::vector<isis::LspRecord> records;
  {
    Result<Bundle> b = read_bundle(dir());
    ASSERT_TRUE(b.ok()) << b.error().to_string();
    ASSERT_GT(b->collector.size(), 2u);
    ASSERT_GT(b->lsp_records.size(), 2u);
    lines = {b->collector.lines().front(), b->collector.lines().back()};
    records = {b->lsp_records.front(), b->lsp_records.back()};
  }
  const sim::SimulationResult& sim = capture_->sim;
  EXPECT_EQ(lines[0].line(), sim.collector.lines().front().line());
  EXPECT_EQ(lines[1].line(), sim.collector.lines().back().line());
  EXPECT_EQ(lines[1].reason(), sim.collector.lines().back().reason());
  EXPECT_EQ(records[0], sim.listener.records().front());
  EXPECT_EQ(records[1], sim.listener.records().back());
}

TEST_F(CaptureBundle, OptionalFilesMayBeAbsent) {
  fs::remove(dir_.path() / "tickets.tsv");
  fs::remove(dir_.path() / "listener_gaps.tsv");
  const Result<Bundle> b = read_bundle(dir());
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(b->tickets.size(), 0u);
  EXPECT_TRUE(b->listener_gaps.empty());
}

TEST_F(CaptureBundle, MalformedListenerGapsFailTheLoad) {
  // Treating this as "no gaps" would silently skip sanitization.
  append("listener_gaps.tsv", "garbage row\n");
  const Result<Bundle> b = read_bundle(dir());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, ErrorCode::kParseError);
  EXPECT_NE(b.error().message.find("listener_gaps.tsv"), std::string::npos);
}

TEST_F(CaptureBundle, OutOfOrderLspCaptureFailsTheLoad) {
  // Every bundle-fed LSP vector is arrival-ordered: a capture whose frame
  // goes back in time is refused, not half-read.
  std::vector<isis::LspRecord> records = capture_->sim.listener.records();
  std::size_t i = 0;
  while (i + 1 < records.size() &&
         !(records[i].received_at < records[i + 1].received_at)) {
    ++i;
  }
  ASSERT_LT(i + 1, records.size());
  std::swap(records[i], records[i + 1]);
  ASSERT_TRUE(
      write_lsp_capture(records, (dir_.path() / "listener.nfc").string()).ok());
  const Result<Bundle> b = read_bundle(dir());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error().code, ErrorCode::kParseError);
  EXPECT_NE(b.error().message.find("frame " + std::to_string(i + 1) + ":"),
            std::string::npos)
      << b.error().message;
}

TEST_F(CaptureBundle, MissingRequiredFilesFailTheLoad) {
  for (const char* file : {"messages.log", "listener.nfc"}) {
    TempDir copy;
    fs::copy(dir_.path(), copy.path(), fs::copy_options::recursive);
    fs::remove(copy.path() / file);
    EXPECT_FALSE(read_bundle(copy.path().string()).ok()) << file;
  }
}

TEST_F(CaptureBundle, EventFileThatIsADirectoryFailsTheLoad) {
  // A directory in messages.log's place once sized the syslog buffer from
  // a seek on the directory and aborted the load with std::bad_alloc.
  for (const char* file : {"messages.log", "listener.nfc"}) {
    TempDir copy;
    fs::copy(dir_.path(), copy.path(), fs::copy_options::recursive);
    fs::remove(copy.path() / file);
    fs::create_directory(copy.path() / file);
    const Result<Bundle> b = read_bundle(copy.path().string());
    ASSERT_FALSE(b.ok()) << file;
    EXPECT_NE(b.error().message.find(file), std::string::npos)
        << b.error().message;
  }
}

TEST_F(CaptureBundle, TwoBadFilesReportTheFirstInLoadOrder) {
  // messages.log and listener.nfc load on worker threads while the caller
  // reads configs/ and the optional files; the error must not depend on
  // which finishes first. Repeat each case to give a race room to show.
  const struct {
    const char* name;
    void (*breakage)(const fs::path& root);
    const char* reported;  // a part of the message only that file's error has
  } cases[] = {
      {"configs/ and messages.log missing",
       [](const fs::path& root) {
         fs::remove_all(root / "configs");
         fs::remove(root / "messages.log");
       },
       "configs is not a directory"},
      {"messages.log and listener.nfc missing",
       [](const fs::path& root) {
         fs::remove(root / "messages.log");
         fs::remove(root / "listener.nfc");
       },
       "messages.log"},
      // A junk tickets.tsv row is skipped, not an error; a junk
      // listener_gaps.tsv row fails the load, after listener.nfc's error.
      {"bad listener.nfc, tickets.tsv and listener_gaps.tsv",
       [](const fs::path& root) {
         for (const char* file :
              {"listener.nfc", "tickets.tsv", "listener_gaps.tsv"}) {
           std::ofstream(root / file, std::ios::trunc) << "garbage row\n";
         }
       },
       "NFC1"},
  };
  for (const auto& c : cases) {
    TempDir copy;
    fs::copy(dir_.path(), copy.path(), fs::copy_options::recursive);
    c.breakage(copy.path());
    for (int run = 0; run < 50; ++run) {
      const Result<Bundle> b = read_bundle(copy.path().string());
      ASSERT_FALSE(b.ok()) << c.name;
      ASSERT_NE(b.error().message.find(c.reported), std::string::npos)
          << c.name << " (run " << run << "): " << b.error().message;
    }
  }
}

TEST_F(CaptureBundle, MalformedMetaIsAnErrorNeverACrash) {
  const std::string valid = "period_begin_ms\t1000\nperiod_end_ms\t2000\n";
  const struct {
    const char* name;
    std::string meta;
  } cases[] = {
      {"empty file", ""},
      {"missing end key", "period_begin_ms\t1000\n"},
      {"missing begin key", "period_end_ms\t2000\n"},
      {"non-numeric value", "period_begin_ms\t1000\nperiod_end_ms\tsoon\n"},
      {"trailing junk", "period_begin_ms\t1000\nperiod_end_ms\t2000x\n"},
      {"extra field", "period_begin_ms\t1000 7\nperiod_end_ms\t2000\n"},
      {"key without value", "period_begin_ms\nperiod_end_ms\t2000\n"},
      {"end equals begin", "period_begin_ms\t1000\nperiod_end_ms\t1000\n"},
      {"end before begin", "period_begin_ms\t2000\nperiod_end_ms\t1000\n"},
      {"overflowing value",
       "period_begin_ms\t1000\nperiod_end_ms\t99999999999999999999999\n"},
      {"binary garbage", "\x01\xff\x7f\n\n\t\t"},
      {"embedded NUL", std::string("period_begin_ms\t10\0", 19) + "00\n" +
                           "period_end_ms\t2000\n"},
      {"overlong line", valid + std::string(1 << 20, '7') + "\n"},
  };
  const fs::path meta = dir_.path() / "META";
  std::ofstream(meta, std::ios::trunc) << valid;
  ASSERT_TRUE(read_bundle(dir()).ok());  // the control: only META varies
  for (const auto& c : cases) {
    std::ofstream(meta, std::ios::trunc | std::ios::binary) << c.meta;
    const Result<Bundle> b = read_bundle(dir());
    ASSERT_FALSE(b.ok()) << c.name;
    EXPECT_NE(b.error().message.find("META"), std::string::npos) << c.name;
  }
  fs::remove(meta);
  EXPECT_FALSE(read_bundle(dir()).ok());
}

TEST(CaptureBundleWrite, FailedMetaWriteIsReported) {
  const TimeRange period{at(1000), at(2000)};
  const auto write_into = [&](const TempDir& dir) {
    return write_bundle(dir.path().string(), period, syslog::Collector{}, {},
                        ConfigArchive{}, TicketStore{}, IntervalSet{});
  };
  {
    TempDir dir;
    ASSERT_TRUE(write_into(dir).ok());
  }
  {
    // META cannot be opened.
    TempDir dir;
    fs::create_directories(dir.path() / "META");
    EXPECT_FALSE(write_into(dir).ok());
  }
  if (fs::exists("/dev/full")) {
    // META opens, but flushing it on close fails (ENOSPC).
    TempDir dir;
    fs::create_symlink("/dev/full", dir.path() / "META");
    EXPECT_FALSE(write_into(dir).ok());
  }
}

}  // namespace
}  // namespace netfail::io
