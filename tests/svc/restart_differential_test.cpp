// The durable-checkpoint keystone guarantee: stopping a streaming run at an
// arbitrary event boundary, persisting every shard to the versioned
// snapshot file, and resuming in fresh engines must finish with a digest
// byte-identical to the uninterrupted run — for shard counts {1, 2, 4} and
// multiple cut points. Because the snapshot encoding serializes unordered
// state in sorted order, the snapshot *bytes* of the resumed run's final
// state must also equal the uninterrupted run's: the file is a pure
// function of engine state, not of the path taken to reach it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/merge.hpp"
#include "src/stream/sharded.hpp"
#include "src/svc/snapshot.hpp"

namespace netfail::svc {
namespace {

using analysis::AmbiguityPolicy;
using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario make_scenario(const sim::ScenarioParams& params) {
  return analysis::ScenarioCache::global().capture(params);
}

/// Per-process names: every test here writes final.nfsnap, and ctest runs
/// them concurrently in separate processes.
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

/// Build `shards` partitioned engines whose callbacks append into `runs`
/// (which outlives the engines — the restart path swaps engines under the
/// same accumulators, exactly like a process that persisted its released
/// output before crashing).
std::vector<std::unique_ptr<stream::StreamEngine>> make_engines(
    const analysis::PipelineCapture& s, const stream::ShardMap& map,
    std::uint32_t shards, bool detect, std::vector<stream::ShardRun>& runs) {
  std::vector<std::unique_ptr<stream::StreamEngine>> engines;
  for (std::uint32_t i = 0; i < shards; ++i) {
    stream::EngineOptions options;
    options.tracker.reconstruct.period = s.period;
    options.tracker.reconstruct.policy = AmbiguityPolicy::kAssumeUp;
    options.detect.enabled = detect;
    options.partition = &map;
    options.shard = i;
    engines.push_back(
        std::make_unique<stream::StreamEngine>(s.census, options));
    stream::StreamEngine& e = *engines.back();
    stream::ShardRun& run = runs[i];
    e.isis_tracker().on_failure = [&run](const analysis::Failure& f) {
      run.isis_failures.push_back(f);
    };
    e.syslog_tracker().on_failure = [&run](const analysis::Failure& f) {
      run.syslog_failures.push_back(f);
    };
    e.isis_tracker().on_ambiguous =
        [&run](const analysis::AmbiguousSegment& a) {
          run.isis_ambiguous.push_back(a);
        };
    e.syslog_tracker().on_ambiguous =
        [&run](const analysis::AmbiguousSegment& a) {
          run.syslog_ambiguous.push_back(a);
        };
    e.isis_tracker().on_flap_episode = [&run](const analysis::FlapEpisode& ep) {
      run.isis_episodes.push_back(ep);
    };
    e.syslog_tracker().on_flap_episode =
        [&run](const analysis::FlapEpisode& ep) {
          run.syslog_episodes.push_back(ep);
        };
  }
  return engines;
}

std::vector<stream::StreamEvent> all_events(
    const analysis::PipelineCapture& s) {
  stream::EventMux mux = stream::EventMux::over_vectors(
      s.sim.collector.lines(), s.sim.listener.records());
  std::vector<stream::StreamEvent> events;
  while (std::optional<stream::StreamEvent> ev = mux.next()) {
    events.push_back(*ev);
  }
  return events;
}

void feed_range(const stream::ShardMap& map,
                std::vector<std::unique_ptr<stream::StreamEngine>>& engines,
                const std::vector<stream::StreamEvent>& events,
                std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const stream::StreamEvent& ev = events[i];
    if (ev.kind() == stream::EventKind::kSyslogLine) {
      engines[map.shard_of(ev.line())]->feed(ev);
    } else {
      for (auto& e : engines) e->feed(ev);
    }
  }
}

Status save_engines(
    const std::string& path,
    const std::vector<std::unique_ptr<stream::StreamEngine>>& engines,
    const LinkCensus& census) {
  std::vector<const stream::StreamEngine*> ptrs;
  ptrs.reserve(engines.size());
  for (const auto& e : engines) ptrs.push_back(e.get());
  return save_snapshot(path, ptrs, census);
}

struct RunResult {
  std::string digest;
  std::string final_snapshot_bytes;  // pre-finish state, serialized
};

/// Run the capture through `shards` engines. With `cut` < events.size(),
/// stop there, persist to disk, tear the engines down, restore into fresh
/// engines, and finish the stream in those.
RunResult run_with_restart(const analysis::PipelineCapture& s,
                           std::uint32_t shards, bool detect, std::size_t cut,
                           const char* snap_name) {
  const stream::ShardMap map(s.census, shards);
  const std::vector<stream::StreamEvent> events = all_events(s);
  std::vector<stream::ShardRun> runs(shards);
  auto engines = make_engines(s, map, shards, detect, runs);

  const std::size_t cut_at = std::min(cut, events.size());
  feed_range(map, engines, events, 0, cut_at);

  if (cut_at < events.size()) {
    const std::string snap_path = temp_path(snap_name);
    EXPECT_TRUE(save_engines(snap_path, engines, s.census).ok());
    engines.clear();  // the "crash": nothing survives but the file

    engines = make_engines(s, map, shards, detect, runs);
    auto loaded = LoadedSnapshot::load(snap_path, s.census);
    EXPECT_TRUE(loaded.ok()) << loaded.error().to_string();
    EXPECT_EQ(loaded->shard_count(), shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      const Status st = loaded->restore_shard(i, *engines[i]);
      EXPECT_TRUE(st.ok()) << st.error().to_string();
    }
    feed_range(map, engines, events, cut_at, events.size());
  }

  RunResult result;
  const std::string final_path = temp_path("final.nfsnap");
  EXPECT_TRUE(save_engines(final_path, engines, s.census).ok());
  result.final_snapshot_bytes = read_file(final_path);

  for (std::uint32_t i = 0; i < shards; ++i) {
    engines[i]->finish();
    runs[i].alerts = engines[i]->detector().sink().snapshot();
    runs[i].engine = engines[i].get();
  }
  const stream::MergedRun merged = stream::merge_shard_runs(runs);
  result.digest = stream::render_digest(merged, s.census);
  return result;
}

TEST(RestartDifferential, ResumedDigestMatchesUninterruptedAcrossShards) {
  const Scenario s = make_scenario(sim::test_scenario(7));
  const std::size_t total = all_events(*s).size();
  ASSERT_GT(total, 100u);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const RunResult reference =
        run_with_restart(*s, shards, /*detect=*/false, total, "none.nfsnap");
    for (const std::size_t cut : {total / 7, total / 2, total - 1}) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      const RunResult resumed =
          run_with_restart(*s, shards, /*detect=*/false, cut, "cut.nfsnap");
      EXPECT_EQ(reference.digest, resumed.digest);
      // Stronger than digest equality: the resumed engines' final state
      // serializes to the exact bytes the uninterrupted run produces.
      EXPECT_EQ(reference.final_snapshot_bytes, resumed.final_snapshot_bytes);
    }
  }
}

TEST(RestartDifferential, DetectorStateSurvivesRestart) {
  // CUSUM statistics, drift cells, the open window index and the alert log
  // all ride in the snapshot; a restart must not change which alerts fire
  // (nor re-fire ones already emitted).
  const Scenario s = make_scenario(sim::test_scenario(2));
  const std::size_t total = all_events(*s).size();
  const RunResult reference =
      run_with_restart(*s, 2, /*detect=*/true, total, "none.nfsnap");
  const RunResult resumed =
      run_with_restart(*s, 2, /*detect=*/true, total / 3, "cut.nfsnap");
  EXPECT_EQ(reference.digest, resumed.digest);
  EXPECT_EQ(reference.final_snapshot_bytes, resumed.final_snapshot_bytes);
}

TEST(RestartDifferential, DoubleRestartIsStillExact) {
  // Two successive restarts (snapshot of a restored engine): proves the
  // restore path reproduces *snapshotable* state, not just digest-visible
  // state.
  const Scenario s = make_scenario(sim::test_scenario(7));
  const stream::ShardMap map(s->census, 2);
  const std::vector<stream::StreamEvent> events = all_events(*s);
  std::vector<stream::ShardRun> runs(2);
  auto engines = make_engines(*s, map, 2, /*detect=*/false, runs);

  const std::size_t third = events.size() / 3;
  feed_range(map, engines, events, 0, third);
  for (int hop = 0; hop < 2; ++hop) {
    const std::string snap_path = temp_path("hop.nfsnap");
    ASSERT_TRUE(save_engines(snap_path, engines, s->census).ok());
    engines.clear();
    engines = make_engines(*s, map, 2, /*detect=*/false, runs);
    auto loaded = LoadedSnapshot::load(snap_path, s->census);
    ASSERT_TRUE(loaded.ok());
    for (std::uint32_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(loaded->restore_shard(i, *engines[i]).ok());
    }
    feed_range(map, engines, events, third * (hop + 1), third * (hop + 2));
  }
  feed_range(map, engines, events, third * 3, events.size());
  const std::string final_path = temp_path("hop_final.nfsnap");
  ASSERT_TRUE(save_engines(final_path, engines, s->census).ok());
  const std::string twice_restarted = read_file(final_path);

  const RunResult reference = run_with_restart(*s, 2, /*detect=*/false,
                                               events.size(), "none.nfsnap");
  EXPECT_EQ(reference.final_snapshot_bytes, twice_restarted);
}

}  // namespace
}  // namespace netfail::svc
