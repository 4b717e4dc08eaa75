// Snapshot framing and failure-mode tests: the round-trip guarantee (decode
// then re-encode is byte-identity), the pinned layout (the bytes of a known
// state, so a layout change must bump kSnapshotVersion), and the totality of
// every corruption path — truncation, bit flips, other format versions,
// foreign files, census mismatches, resealed sections whose fields break the
// engine's invariants — each yielding a specific ErrorCode and, on the
// restore side, an engine that is bitwise untouched (the never-partial
// commit protocol).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/config/census.hpp"
#include "src/isis/listener.hpp"
#include "src/isis/lsp_builder.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/sharded.hpp"
#include "src/svc/snapshot.hpp"
#include "src/syslog/collector.hpp"
#include "src/syslog/message.hpp"

namespace netfail::svc {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario scenario() {
  static Scenario s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(3));
  return s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Header layout: magic[8] + u32 version + u64 body_len, then body, then
// u64 checksum (see snapshot.hpp).
constexpr std::size_t kHeaderSize = 8 + 4 + 8;
constexpr std::size_t kBodyOffset = kHeaderSize;

/// Recompute the trailing checksum after a deliberate body edit, so the
/// edit exercises structural validation instead of the checksum gate.
void reseal(std::string& bytes) {
  const std::size_t body_len = bytes.size() - kHeaderSize - 8;
  const std::uint64_t sum = stream::stable_hash64(
      std::string_view(bytes).substr(kBodyOffset, body_len));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
}

/// An engine mid-stream: shard `shard` of `map`, fed the first half of the
/// scenario's events with the gateway routing discipline.
std::unique_ptr<stream::StreamEngine> half_fed_engine(
    const stream::ShardMap& map, std::uint32_t shard) {
  const Scenario s = scenario();
  stream::EngineOptions options;
  options.tracker.reconstruct.period = s->period;
  options.detect.enabled = true;
  options.partition = &map;
  options.shard = shard;
  auto engine = std::make_unique<stream::StreamEngine>(s->census, options);
  stream::EventMux mux = stream::EventMux::over_vectors(
      s->sim.collector.lines(), s->sim.listener.records());
  const std::size_t total = s->sim.collector.lines().size() +
                            s->sim.listener.records().size();
  std::size_t fed = 0;
  while (std::optional<stream::StreamEvent> ev = mux.next()) {
    if (fed++ >= total / 2) break;
    if (ev->kind() == stream::EventKind::kSyslogLine &&
        map.shard_of(ev->line()) != shard) {
      continue;
    }
    engine->feed(*ev);
  }
  EXPECT_GT(engine->events_ingested(), 0u);
  return engine;
}

std::string save_to_temp(const char* name,
                         std::vector<const stream::StreamEngine*> engines) {
  const std::string path = temp_path(name);
  const Status s = save_snapshot(path, engines, scenario()->census);
  EXPECT_TRUE(s.ok()) << s.error().to_string();
  return path;
}

TEST(SvcSnapshot, RoundTripReserializesToIdenticalBytes) {
  const stream::ShardMap map(scenario()->census, 2);
  const auto e0 = half_fed_engine(map, 0);
  const auto e1 = half_fed_engine(map, 1);
  const std::string path = save_to_temp("rt.nfsnap", {e0.get(), e1.get()});
  const std::string original = read_file(path);

  auto loaded = LoadedSnapshot::load(path, scenario()->census);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  ASSERT_EQ(loaded->shard_count(), 2u);

  stream::EngineOptions options;
  options.tracker.reconstruct.period = scenario()->period;
  options.detect.enabled = true;
  options.partition = &map;
  stream::StreamEngine r0(scenario()->census, options);
  options.shard = 1;
  stream::StreamEngine r1(scenario()->census, options);
  ASSERT_TRUE(loaded->restore_shard(0, r0).ok());
  ASSERT_TRUE(loaded->restore_shard(1, r1).ok());

  EXPECT_EQ(r0.events_ingested(), e0->events_ingested());
  EXPECT_EQ(r1.events_ingested(), e1->events_ingested());
  EXPECT_EQ(r0.high_water(), e0->high_water());
  EXPECT_EQ(r1.detector().alerts_emitted(), e1->detector().alerts_emitted());

  const std::string path2 = save_to_temp("rt2.nfsnap", {&r0, &r1});
  EXPECT_EQ(read_file(path2), original);
}

TEST(SvcSnapshot, SaveIsAtomicAndLeavesNoTempFile) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("atomic.nfsnap", {e.get()});
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite in place: the second save replaces the first atomically.
  const std::string again = save_to_temp("atomic.nfsnap", {e.get()});
  EXPECT_EQ(again, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SvcSnapshot, LoadRejectsMissingFile) {
  auto r = LoadedSnapshot::load(temp_path("nonexistent.nfsnap"),
                                scenario()->census);
  EXPECT_FALSE(r.ok());
}

TEST(SvcSnapshot, LoadRejectsForeignFile) {
  const std::string path = temp_path("foreign.nfsnap");
  write_file(path, "PK\x03\x04 definitely not a netfail snapshot, long "
                   "enough to clear the header size check............");
  auto r = LoadedSnapshot::load(path, scenario()->census);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kParseError);
}

TEST(SvcSnapshot, LoadRejectsTruncation) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("trunc.nfsnap", {e.get()});
  const std::string full = read_file(path);
  // Every prefix must fail cleanly; spot-check a spread of cut points
  // including mid-header, mid-body and just-missing-checksum.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, kHeaderSize - 1, kHeaderSize + 1,
        full.size() / 2, full.size() - 9, full.size() - 1}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    write_file(path, full.substr(0, keep));
    auto r = LoadedSnapshot::load(path, scenario()->census);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kTruncated);
  }
}

TEST(SvcSnapshot, LoadRejectsBitFlipAnywhereInBody) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("flip.nfsnap", {e.get()});
  const std::string full = read_file(path);
  for (const std::size_t at :
       {kBodyOffset, kBodyOffset + (full.size() - kBodyOffset - 8) / 2,
        full.size() - 9}) {
    SCOPED_TRACE("flip at " + std::to_string(at));
    std::string bad = full;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    write_file(path, bad);
    auto r = LoadedSnapshot::load(path, scenario()->census);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kChecksumMismatch);
  }
}

TEST(SvcSnapshot, LoadRejectsFutureFormatVersion) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("future.nfsnap", {e.get()});
  std::string bytes = read_file(path);
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);  // u32 LE low byte
  write_file(path, bytes);
  auto r = LoadedSnapshot::load(path, scenario()->census);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnsupported);
  EXPECT_NE(r.error().message.find("newer than supported"), std::string::npos);
}

TEST(SvcSnapshot, LoadRejectsEveryOtherFormatVersion) {
  // Older layouts are not migrated: decoding a version-1 body (which still
  // carried the recent-failures ring) with the current codec would misread
  // every later field, so load refuses any version but the current one and
  // a restore attempt never reaches the engine.
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("old.nfsnap", {e.get()});
  const std::string current = read_file(path);
  stream::EngineOptions options;
  options.tracker.reconstruct.period = scenario()->period;
  options.detect.enabled = true;
  options.partition = &map;
  stream::StreamEngine victim(scenario()->census, options);
  const std::string before =
      read_file(save_to_temp("old_victim.nfsnap", {&victim}));
  for (const std::uint32_t version : {0u, 1u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    ASSERT_NE(version, kSnapshotVersion);
    std::string bytes = current;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[8 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    write_file(path, bytes);
    auto r = LoadedSnapshot::load(path, scenario()->census);
    if (r.ok()) (void)r->restore_shard(0, victim);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kUnsupported);
    EXPECT_NE(r.error().message.find("older than supported"),
              std::string::npos);
  }
  EXPECT_EQ(victim.events_ingested(), 0u);
  EXPECT_EQ(read_file(save_to_temp("old_victim2.nfsnap", {&victim})), before);
}

TEST(SvcSnapshot, LoadRejectsCensusMismatch) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("census.nfsnap", {e.get()});
  const Scenario other =
      analysis::ScenarioCache::global().capture(sim::cenic_scenario());
  ASSERT_NE(census_fingerprint(other->census),
            census_fingerprint(scenario()->census));
  auto r = LoadedSnapshot::load(path, other->census);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(r.error().message.find("fingerprint"), std::string::npos);
}

std::uint32_t u32_at(const std::string& bytes, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

/// Body offset of the first shard section's u64 length field: skip the
/// census fingerprint, shard count and the symbol table.
std::size_t first_section_length_offset(const std::string& file_bytes) {
  std::size_t off = kBodyOffset + 8 + 4;  // fingerprint + shard count
  const std::uint32_t symbols = u32_at(file_bytes, off);
  off += 4;
  for (std::uint32_t i = 0; i < symbols; ++i) {
    off += 4 + u32_at(file_bytes, off);
  }
  return off;
}

TEST(SvcSnapshot, ChecksummedButStructurallyBrokenBodyFailsCleanly) {
  // Corruption the checksum gate can't see (because we reseal it) must be
  // caught by structural validation: stomp the first shard section's
  // length field in both directions. Oversized = the section table runs
  // off the body; undersized = decode stops early with bytes left over.
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("reseal.nfsnap", {e.get()});
  const std::string original = read_file(path);
  const std::size_t len_off = first_section_length_offset(original);
  ASSERT_LT(len_off + 8, original.size() - 8);

  for (const std::uint64_t bogus : {~std::uint64_t{0}, std::uint64_t{3}}) {
    SCOPED_TRACE("section length " + std::to_string(bogus));
    std::string bytes = original;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[len_off + i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
    }
    reseal(bytes);
    write_file(path, bytes);
    auto loaded = LoadedSnapshot::load(path, scenario()->census);
    if (!loaded.ok()) continue;  // rejected at load time: correct
    // Load tolerated the reframing; the shard decode must still fail and
    // leave the target engine factory-fresh (never-partial).
    stream::EngineOptions options;
    options.tracker.reconstruct.period = scenario()->period;
    options.detect.enabled = true;
    options.partition = &map;
    stream::StreamEngine engine(scenario()->census, options);
    const Status st = loaded->restore_shard(0, engine);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(engine.events_ingested(), 0u);
  }
}

TEST(SvcSnapshot, FailedRestoreLeavesEngineBitwiseUntouched) {
  // Restore shard 1's section into an engine configured as shard 0: the
  // codec rejects the mismatch and the target engine must serialize to the
  // same bytes as before the attempt.
  const stream::ShardMap map(scenario()->census, 2);
  const auto e0 = half_fed_engine(map, 0);
  const auto e1 = half_fed_engine(map, 1);
  const std::string path = save_to_temp("mismatch.nfsnap",
                                        {e0.get(), e1.get()});
  auto loaded = LoadedSnapshot::load(path, scenario()->census);
  ASSERT_TRUE(loaded.ok());

  // The victim: a shard-0 engine that already holds real state.
  auto victim = half_fed_engine(map, 0);
  const std::string before_path = save_to_temp("victim.nfsnap",
                                               {victim.get()});
  const std::string before = read_file(before_path);

  const Status st = loaded->restore_shard(1, *victim);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(st.error().message.find("shard"), std::string::npos);

  const std::string after_path = save_to_temp("victim2.nfsnap",
                                              {victim.get()});
  EXPECT_EQ(read_file(after_path), before);
}

TEST(SvcSnapshot, RestoreShardIndexOutOfRange) {
  const stream::ShardMap map(scenario()->census, 1);
  const auto e = half_fed_engine(map, 0);
  const std::string path = save_to_temp("range.nfsnap", {e.get()});
  auto loaded = LoadedSnapshot::load(path, scenario()->census);
  ASSERT_TRUE(loaded.ok());
  stream::EngineOptions options;
  options.tracker.reconstruct.period = scenario()->period;
  stream::StreamEngine engine(scenario()->census, options);
  const Status st = loaded->restore_shard(7, engine);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
}

TEST(SvcSnapshot, LayoutIsPinned) {
  // The bytes save_snapshot writes for a known state, recorded from the
  // codec as it stood before its encode/decode pairs became one walk. The
  // round-trip and restart tests cannot see a layout change made the same
  // way on both sides; this test can. When it fails on purpose, bump
  // kSnapshotVersion and record the new values.
  struct Pin {
    std::uint32_t shards;
    std::uint64_t hash;
    std::size_t size;
  };
  for (const Pin& pin : {Pin{1, 0x2aef8218ca99c419ull, 35635},
                        Pin{2, 0x1f4bca06d8324ebull, 40845}}) {
    SCOPED_TRACE("shards " + std::to_string(pin.shards));
    const stream::ShardMap map(scenario()->census, pin.shards);
    std::vector<std::unique_ptr<stream::StreamEngine>> owned;
    std::vector<const stream::StreamEngine*> engines;
    for (std::uint32_t i = 0; i < pin.shards; ++i) {
      owned.push_back(half_fed_engine(map, i));
      engines.push_back(owned.back().get());
    }
    const std::string bytes =
        read_file(save_to_temp("pinned.nfsnap", engines));
    EXPECT_EQ(stream::stable_hash64(bytes), pin.hash);
    EXPECT_EQ(bytes.size(), pin.size);
  }
}

// ---- resealed sections that used to crash a restored engine ----------------
//
// A two-link census and one engine over it, fed at most one syslog line and
// one LSP, keep the section small enough to patch by offset. The offsets
// follow the section layout (see src/svc/snapshot.cpp).

/// Engine header: shard u32, three event counts u64, high water i64,
/// finished u8, four syslog stats u64.
constexpr std::size_t kEngineHeader = 4 + 3 * 8 + 8 + 1 + 4 * 8;
/// The extractor's eight stats u64; its source count follows.
constexpr std::size_t kExtractorStats = 8 * 8;
/// An extractor that has seen no LSP: the stats, then four zero counts.
constexpr std::size_t kEmptyExtractor = kExtractorStats + 4 * 4;
/// A tracker with no links: link count u32, twelve counters u64, downtime,
/// high water, has-high-water u8, next seq, pending total, finished u8.
constexpr std::size_t kEmptyTracker = 4 + 12 * 8 + 8 + 8 + 1 + 8 + 8 + 1;
/// The detector's last two fields: window index i64, finished u8.
constexpr std::size_t kDetectorTail = 8 + 1;
/// A tracked link's walker state, after its id: state u8, failure start,
/// last up, three flags u8, last kept time, last kept direction u8.
constexpr std::size_t kWalker = 1 + 8 + 8 + 3 + 8 + 1;
/// One pending transition: time i64, seq u64, direction u8.
constexpr std::size_t kPending = 8 + 8 + 1;

void put_u32(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

class SmallSnapshot : public ::testing::Test {
 protected:
  SmallSnapshot() {
    for (std::uint8_t i = 0; i < 2; ++i) {
      const char* iface = i == 0 ? "ge-0/0/0" : "ge-0/0/1";
      const Ipv4Address a(10, 9, 0, static_cast<std::uint8_t>(2 * i));
      census_.add_link(CensusEndpoint{"snap-r1", iface, a},
                       CensusEndpoint{"snap-r2", iface,
                                      Ipv4Address(a.value() + 1)},
                       Ipv4Prefix{a, 31}, period_, RouterClass::kCore);
    }
    census_.finalize();
    stream::EngineOptions options;
    options.tracker.reconstruct.period = period_;
    options.detect.enabled = true;
    engine_ = std::make_unique<stream::StreamEngine>(census_, options);
  }

  /// An IS-IS adjacency DOWN on link 0, reported by snap-r1 at 04:11:ss.
  void feed_adjacency_down(int second = 17) {
    syslog::Message m;
    m.timestamp = TimePoint::from_civil(2011, 3, 9, 4, 11, second);
    m.reporter = "snap-r1";
    m.dialect = RouterOs::kIos;
    m.type = syslog::MessageType::kIsisAdjChange;
    m.dir = LinkDirection::kDown;
    m.interface = "ge-0/0/0";
    m.neighbor = "snap-r2";
    m.reason = "hold time expired";
    engine_->feed_syslog(syslog::ReceivedLine(m.timestamp, m.render(1)));
  }

  /// An LSP from snap-r1 advertising link 0's /31 and nothing else.
  void feed_lsp() {
    isis::LspOriginator r1(OsiSystemId::from_index(1), "snap-r1");
    r1.prefix_up(census_.link(LinkId(0)).subnet, 10);
    const std::vector<std::uint8_t> pdu = r1.build().encode();
    engine_->feed_lsp(isis::LspRecord{
        TimePoint::from_civil(2011, 3, 9, 4, 0, 0),
        ByteSlice::copy_of(std::span<const std::uint8_t>(pdu))});
  }

  std::string save(const char* name) {
    const std::string path = temp_path(name);
    const std::vector<const stream::StreamEngine*> engines{engine_.get()};
    const Status s = save_snapshot(path, engines, census_);
    EXPECT_TRUE(s.ok()) << s.error().to_string();
    return read_file(path);
  }

  /// Offset of the only section in a one-shard file.
  static std::size_t section_at(const std::string& file_bytes) {
    return first_section_length_offset(file_bytes) + 8;
  }

  /// Reseal `bytes`, restore it into the engine, and expect a parse error
  /// that leaves the engine's own snapshot bytes as they were.
  void expect_rejected(std::string bytes) {
    reseal(bytes);
    const std::string before = save("small_before.nfsnap");
    const std::string path = temp_path("small_bad.nfsnap");
    write_file(path, bytes);
    auto loaded = LoadedSnapshot::load(path, census_);
    ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
    const Status st = loaded->restore_shard(0, *engine_);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, ErrorCode::kParseError) << st.error().message;
    EXPECT_EQ(save("small_after.nfsnap"), before);
  }

  const TimeRange period_{TimePoint::from_civil(2011, 1, 1),
                          TimePoint::from_civil(2012, 1, 1)};
  LinkCensus census_;
  std::unique_ptr<stream::StreamEngine> engine_;
};

TEST_F(SmallSnapshot, RejectsTrackerLinkOutsideTheCensus) {
  // Restored, link 53 of a two-link census aborted the digest render.
  feed_adjacency_down();
  std::string bytes = save("small_link.nfsnap");
  const std::size_t tracker =
      section_at(bytes) + kEngineHeader + kEmptyExtractor + kEmptyTracker;
  ASSERT_EQ(u32_at(bytes, tracker), 1u);      // the syslog tracker's links
  ASSERT_EQ(u32_at(bytes, tracker + 4), 0u);  // ... the first is link 0
  put_u32(bytes, tracker + 4, 53);
  expect_rejected(bytes);
}

TEST_F(SmallSnapshot, RejectsActiveDriftKeyWithoutACell) {
  // Restored, an active key with no cell behind it made the next window
  // close dereference cells_.end().
  feed_adjacency_down();
  std::string bytes = save("small_active.nfsnap");
  const std::size_t active = bytes.size() - 8 - kDetectorTail - 8;
  ASSERT_EQ(u32_at(bytes, active - 4), 1u);  // one active key
  ASSERT_EQ(u32_at(bytes, active), 0u);      // ... on link 0
  put_u32(bytes, active, 1);                 // link 1 has no cell
  expect_rejected(bytes);
}

TEST_F(SmallSnapshot, RejectsPendingBufferOutOfHeapOrder) {
  feed_adjacency_down(17);
  feed_adjacency_down(18);  // both wait out the reorder horizon
  std::string bytes = save("small_heap.nfsnap");
  const std::size_t tracker =
      section_at(bytes) + kEngineHeader + kEmptyExtractor + kEmptyTracker;
  const std::size_t pending = tracker + 4 + 4 + kWalker;
  ASSERT_EQ(u32_at(bytes, pending), 2u);
  // Swapped, the later transition sits at the root of the min-heap.
  const std::string first = bytes.substr(pending + 4, kPending);
  bytes.replace(pending + 4, kPending, bytes, pending + 4 + kPending, kPending);
  bytes.replace(pending + 4 + kPending, kPending, first);
  expect_rejected(bytes);
}

TEST_F(SmallSnapshot, RejectsPartsThatDisagreeOnFinished) {
  // Restored, an IS-IS tracker finished alone aborted the next ingest.
  feed_adjacency_down();
  std::string bytes = save("small_finished.nfsnap");
  const std::size_t finished =
      section_at(bytes) + kEngineHeader + kEmptyExtractor + kEmptyTracker - 1;
  ASSERT_EQ(bytes[finished], 0);
  bytes[finished] = 1;
  expect_rejected(bytes);
}

TEST_F(SmallSnapshot, RejectsPrefixLengthAbove32) {
  // A /33 reached Ipv4Prefix's range assertion inside the decode itself.
  feed_lsp();
  std::string bytes = save("small_prefix.nfsnap");
  // One source: id[6], sequence u32, hostname u32, no adjacencies, then
  // one prefix: network u32, length u8.
  const std::size_t source =
      section_at(bytes) + kEngineHeader + kExtractorStats;
  ASSERT_EQ(u32_at(bytes, source), 1u);
  const std::size_t prefixes = source + 4 + 6 + 4 + 4 + 4;
  ASSERT_EQ(u32_at(bytes, prefixes - 4), 0u);  // no adjacencies
  ASSERT_EQ(u32_at(bytes, prefixes), 1u);      // one prefix
  ASSERT_EQ(bytes[prefixes + 4 + 4], 31);
  bytes[prefixes + 4 + 4] = 33;
  expect_rejected(bytes);
}

TEST(SvcSnapshot, CensusFingerprintIsOrderAndNameSensitive) {
  const Scenario s = scenario();
  const std::uint64_t fp = census_fingerprint(s->census);
  EXPECT_EQ(fp, census_fingerprint(s->census));  // deterministic
  const Scenario other =
      analysis::ScenarioCache::global().capture(sim::cenic_scenario());
  EXPECT_NE(fp, census_fingerprint(other->census));
}

}  // namespace
}  // namespace netfail::svc
