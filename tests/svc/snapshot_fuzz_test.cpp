// Deterministic mutation fuzz for the snapshot reader. The sections of
// half-fed 1- and 2-shard engines (detection on) are byte-mutated, cut,
// extended, flag-toggled, pushed to 64-bit extremes and count-patched,
// then the file is resealed (section lengths, body length and checksum
// recomputed) so every case reaches the section reader instead of
// stopping at the frame checks. No libFuzzer: every case
// is a fixed seed, so a failure reproduces exactly. Runs in tier-1 and
// under ASan/UBSan with the rest of test_svc.
//
// Property, per case: restore_shard either returns an error and leaves the
// engine untouched, or it returns an engine that
//   - re-encodes to bytes that restore and re-encode to the same bytes;
//   - when not finished, can be fed the rest of the scenario;
//   - finishes and renders its digest without an abort.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/rng.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/merge.hpp"
#include "src/stream/sharded.hpp"
#include "src/svc/binio.hpp"
#include "src/svc/snapshot.hpp"

namespace netfail::svc {
namespace {

const analysis::PipelineCapture& scenario() {
  static const auto s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(3));
  return *s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::to_string(::getpid()) + "_" + name))
      .string();
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

/// A snapshot file taken apart along its frame (see snapshot.hpp), so a
/// section can be mutated and the file put back together sealed.
struct Frame {
  std::uint64_t fingerprint = 0;
  std::vector<std::string> symbols;
  std::vector<std::string> sections;

  static Frame parse(const std::string& file) {
    Frame f;
    ByteReader r(std::string_view(file).substr(8 + 4 + 8));
    f.fingerprint = r.u64();
    const std::uint32_t shards = r.u32();
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      f.symbols.emplace_back(r.str());
    }
    for (std::uint32_t i = 0; i < shards; ++i) {
      const std::uint64_t len = r.u64();
      f.sections.emplace_back(file.substr(8 + 4 + 8 + r.position(), len));
      r.skip(len);
    }
    EXPECT_TRUE(r.ok());
    return f;
  }

  /// The file, resealed: every length and the checksum recomputed.
  std::string seal() const {
    ByteWriter body;
    body.u64(fingerprint);
    body.u32(static_cast<std::uint32_t>(sections.size()));
    body.u32(static_cast<std::uint32_t>(symbols.size()));
    for (const std::string& s : symbols) body.str(s);
    for (const std::string& s : sections) {
      body.u64(s.size());
      body.raw(s.data(), s.size());
    }
    ByteWriter file;
    file.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
    file.u32(kSnapshotVersion);
    file.u64(body.size());
    file.raw(body.bytes().data(), body.size());
    file.u64(stream::stable_hash64(body.bytes()));
    return file.take();
  }
};

std::size_t random_index(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

char random_byte(Rng& rng) {
  return static_cast<char>(rng.uniform_int(0, 255));
}

/// One seeded mutation of a section.
void mutate(std::string& s, Rng& rng) {
  if (s.empty()) return;
  switch (rng.uniform_int(0, 7)) {
    case 0: {  // flipped bytes anywhere
      for (int n = static_cast<int>(rng.uniform_int(1, 6)); n > 0; --n) {
        s[random_index(rng, s.size())] = random_byte(rng);
      }
      break;
    }
    case 1:  // cut short
      s.resize(random_index(rng, s.size()));
      break;
    case 2:  // random bytes appended
      for (int n = static_cast<int>(rng.uniform_int(1, 40)); n > 0; --n) {
        s.push_back(random_byte(rng));
      }
      break;
    case 3:  // a slice repeated in place (repeated entries, shifted fields)
    {
      const std::size_t at = random_index(rng, s.size());
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 64));
      s.insert(at, s.substr(at, len));
      break;
    }
    case 4:  // a 0/1 byte (a flag, a direction, a finished mark) toggled
      for (int tries = 0; tries < 64; ++tries) {
        char& c = s[random_index(rng, s.size())];
        if (c == 0 || c == 1) {
          c = static_cast<char>(c ^ 1);
          break;
        }
      }
      break;
    case 5: {  // an 8-byte window (a time, a count) set to an extreme
      if (s.size() < 8) break;
      static constexpr std::uint64_t kExtremes[] = {
          0x8000000000000000ull, 0x7fffffffffffffffull, 0xc000000000000000ull,
          0x4000000000000000ull, 0x000000007fffffffull};
      const std::uint64_t v =
          kExtremes[random_index(rng, std::size(kExtremes))];
      const std::size_t at = random_index(rng, s.size() - 7);
      for (std::size_t i = 0; i < 8; ++i) {
        s[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
      }
      break;
    }
    default: {  // a u32 count field patched: small, or one off its value
      if (s.size() < 4) break;
      const std::size_t at = random_index(rng, s.size() - 3);
      std::uint32_t v = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[at + i]))
             << (8 * i);
      }
      switch (rng.uniform_int(0, 2)) {
        case 0: v = static_cast<std::uint32_t>(rng.uniform_int(0, 3)); break;
        case 1: ++v; break;
        default: --v; break;
      }
      for (std::size_t i = 0; i < 4; ++i) {
        s[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
      }
      break;
    }
  }
}

/// The scenario's events in merged arrival order.
std::vector<stream::StreamEvent> all_events() {
  stream::EventMux mux = stream::EventMux::over_vectors(
      scenario().sim.collector.lines(), scenario().sim.listener.records());
  std::vector<stream::StreamEvent> events;
  while (std::optional<stream::StreamEvent> ev = mux.next()) {
    events.push_back(*ev);
  }
  return events;
}

/// A fresh engine for shard `shard` of `map`, its released output wired
/// into `run`.
std::unique_ptr<stream::StreamEngine> make_engine(const stream::ShardMap& map,
                                                  std::uint32_t shard,
                                                  stream::ShardRun& run) {
  stream::EngineOptions options;
  options.tracker.reconstruct.period = scenario().period;
  options.detect.enabled = true;
  options.partition = &map;
  options.shard = shard;
  auto e = std::make_unique<stream::StreamEngine>(scenario().census, options);
  e->isis_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.isis_failures.push_back(f);
  };
  e->syslog_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.syslog_failures.push_back(f);
  };
  e->isis_tracker().on_flap_episode = [&run](const analysis::FlapEpisode& ep) {
    run.isis_episodes.push_back(ep);
  };
  e->syslog_tracker().on_flap_episode =
      [&run](const analysis::FlapEpisode& ep) {
        run.syslog_episodes.push_back(ep);
      };
  return e;
}

/// Feed events [begin, end) to shard `shard`'s engine: its own syslog
/// lines, and every LSP.
void feed(stream::StreamEngine& e, const stream::ShardMap& map,
          std::uint32_t shard, const std::vector<stream::StreamEvent>& events,
          std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const stream::StreamEvent& ev = events[i];
    if (ev.kind() == stream::EventKind::kSyslogLine &&
        map.shard_of(ev.line()) != shard) {
      continue;
    }
    e.feed(ev);
  }
}

std::string save(const stream::StreamEngine& e, const char* name) {
  const std::string path = temp_path(name);
  const std::vector<const stream::StreamEngine*> engines{&e};
  const Status s = save_snapshot(path, engines, scenario().census);
  EXPECT_TRUE(s.ok()) << s.error().to_string();
  return read_file(path);
}

TEST(SnapshotFuzz, MutatedSectionsFailCleanlyOrRestoreAWorkingEngine) {
  const std::vector<stream::StreamEvent> events = all_events();
  const std::size_t half = events.size() / 2;
  struct Base {
    std::unique_ptr<stream::ShardMap> map;
    Frame frame;
    std::vector<std::string> fresh;  // a fresh engine's bytes, per shard
  };
  std::vector<Base> bases;
  for (const std::uint32_t shards : {1u, 2u}) {
    Base b;
    b.map = std::make_unique<stream::ShardMap>(scenario().census, shards);
    std::vector<stream::ShardRun> runs(shards);
    std::vector<std::unique_ptr<stream::StreamEngine>> owned;
    std::vector<const stream::StreamEngine*> engines;
    for (std::uint32_t i = 0; i < shards; ++i) {
      owned.push_back(make_engine(*b.map, i, runs[i]));
      feed(*owned.back(), *b.map, i, events, 0, half);
      engines.push_back(owned.back().get());
      b.fresh.push_back(
          save(*make_engine(*b.map, i, runs[i]), "fresh.nfsnap"));
    }
    const std::string path = temp_path("base.nfsnap");
    ASSERT_TRUE(save_snapshot(path, engines, scenario().census).ok());
    b.frame = Frame::parse(read_file(path));
    ASSERT_EQ(b.frame.sections.size(), shards);
    bases.push_back(std::move(b));
  }

  Rng rng(0x5A75);
  std::map<ErrorCode, std::size_t> rejected;
  std::size_t restored = 0;
  std::size_t fed = 0;
  const std::string path = temp_path("fuzz.nfsnap");
  for (std::size_t i = 0; i < 600; ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const Base& base = bases[i % bases.size()];
    const auto shard = static_cast<std::uint32_t>(
        random_index(rng, base.frame.sections.size()));
    Frame frame = base.frame;
    if (i % 10 != 0) {  // one in ten stays intact
      mutate(frame.sections[shard], rng);
      if (rng.bernoulli(0.3)) mutate(frame.sections[shard], rng);
    }
    write_file(path, frame.seal());
    auto loaded = LoadedSnapshot::load(path, scenario().census);
    ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();

    stream::ShardRun run;
    auto engine = make_engine(*base.map, shard, run);
    const Status st = loaded->restore_shard(shard, *engine);
    if (!st.ok()) {
      ++rejected[st.error().code];
      ASSERT_EQ(save(*engine, "untouched.nfsnap"), base.fresh[shard]);
      continue;
    }
    ++restored;

    // Its re-encoding restores, and re-encodes to the same bytes.
    const std::string once = save(*engine, "once.nfsnap");
    {
      stream::ShardRun again_run;
      auto again = make_engine(*base.map, shard, again_run);
      auto reloaded =
          LoadedSnapshot::load(temp_path("once.nfsnap"), scenario().census);
      ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();
      const Status again_st = reloaded->restore_shard(0, *again);
      ASSERT_TRUE(again_st.ok()) << again_st.error().to_string();
      ASSERT_EQ(save(*again, "twice.nfsnap"), once);
    }

    // It takes the rest of the stream, finishes and renders.
    if (!engine->finished()) {
      ++fed;
      feed(*engine, *base.map, shard, events, half, events.size());
    }
    engine->finish();
    run.alerts = engine->detector().sink().snapshot();
    run.engine = engine.get();
    const std::vector<stream::ShardRun> runs{run};
    EXPECT_FALSE(
        stream::render_digest(stream::merge_shard_runs(runs),
                              scenario().census)
            .empty());
  }
  // The mix reaches acceptance, and the reader's truncation, range and
  // trailing-byte checks.
  EXPECT_GT(restored, 60u);
  EXPECT_GT(fed, 10u);
  EXPECT_GT(rejected[ErrorCode::kParseError], 60u);
  EXPECT_GT(rejected[ErrorCode::kTruncated], 10u);
}

}  // namespace
}  // namespace netfail::svc
