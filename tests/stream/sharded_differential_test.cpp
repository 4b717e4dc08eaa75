// The sharded keystone guarantee: partitioning the stream across N engines
// by the stable link hash and merging the per-shard results must reproduce
// the serial single-engine run *byte for byte* — same failures, ambiguous
// segments, flap episodes, counters, and detection alerts, for every shard
// count, seed, and ambiguity policy. The harness below routes syslog events
// to their owning shard and broadcasts LSPs, exactly the discipline the
// sharded gateway applies on its IO threads, so a digest mismatch here
// means the partition invariant (sharded.hpp) or the merge discipline
// (merge.hpp) is broken — not socket noise.
#include <gtest/gtest.h>

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
#include "src/syslog/message.hpp"

namespace netfail::stream {
namespace {

using analysis::AmbiguityPolicy;

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario make_scenario(const sim::ScenarioParams& params) {
  return analysis::ScenarioCache::global().capture(params);
}

// ---- stable hash golden values ----------------------------------------------

TEST(ShardMap, StableHashMatchesFnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors. These pin the exact function: the
  // shard of a link must be identical across processes, machines, and
  // standard library versions (std::hash guarantees none of that), because
  // a router and a later analysis run must agree on which shard owned a
  // link's history.
  EXPECT_EQ(stable_hash64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(stable_hash64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(stable_hash64("foobar"), 0x85944171f73967e8ull);
}

TEST(ShardMap, HashIsCompileTimeEvaluable) {
  // constexpr-ness is the cheap proof there is no hidden runtime state
  // (per-process seed, ASLR-dependent pointer) in the hash.
  static_assert(stable_hash64("hostA:ge-0/0/0|hostB:ge-0/0/1") ==
                stable_hash64("hostA:ge-0/0/0|hostB:ge-0/0/1"));
  constexpr std::uint64_t h = stable_hash64("x");
  EXPECT_NE(h, 0u);
}

// ---- shard assignment properties --------------------------------------------

TEST(ShardMap, SingleShardOwnsEverything) {
  const Scenario s = make_scenario(sim::test_scenario(1));
  const ShardMap map(s->census, 1);
  for (std::uint32_t i = 0; i < s->census.size(); ++i) {
    const LinkId link = s->census.links()[i].id;
    EXPECT_EQ(map.shard_of(link), 0u);
    EXPECT_TRUE(map.owns(0, link));
  }
  for (const syslog::ReceivedLine& rec : s->sim.collector.lines()) {
    ASSERT_EQ(map.shard_of(rec), 0u);
  }
}

TEST(ShardMap, AssignmentFollowsTheNameHashAndIsTotal) {
  const Scenario s = make_scenario(sim::test_scenario(1));
  for (const std::uint32_t shards : {2u, 3u, 4u}) {
    const ShardMap map(s->census, shards);
    for (std::uint32_t i = 0; i < s->census.size(); ++i) {
      const CensusLink& cl = s->census.links()[i];
      const std::uint32_t shard = map.shard_of(cl.id);
      ASSERT_LT(shard, shards);
      // The assignment is a pure function of the canonical link *name* —
      // never of symbol ids (intern-order dependent) or std::hash.
      EXPECT_EQ(shard, map.shard_of_name(cl.name));
      EXPECT_EQ(shard, static_cast<std::uint32_t>(stable_hash64(cl.name) %
                                                  shards));
      for (std::uint32_t other = 0; other < shards; ++other) {
        EXPECT_EQ(map.owns(other, cl.id), other == shard);
      }
    }
  }
}

TEST(ShardMap, PaperScaleCensusCoversEveryShard) {
  // Hash-quality canary on the paper-scale topology: with hundreds of
  // links, FNV-1a must not leave a shard empty (an empty shard means a
  // whole core idles). Deterministic: same census, same hash, same answer.
  const Scenario s = make_scenario(sim::cenic_scenario());
  const std::uint32_t shards = 4;
  const ShardMap map(s->census, shards);
  std::vector<std::uint32_t> owned(shards, 0);
  for (std::uint32_t i = 0; i < s->census.size(); ++i) {
    ++owned[map.shard_of(s->census.links()[i].id)];
  }
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    EXPECT_GT(owned[shard], 0u) << "shard " << shard << " owns no links";
  }
}

TEST(ShardMap, ShardOfLineAgreesWithLinkOwnership) {
  // The IO-thread router and the engine's extractor must resolve a line to
  // the same link, or an event lands on a shard whose engine ignores it.
  // Mirrors extract_line's resolution: the line's stored parse, then
  // find_by_interface on (reporter, interface).
  const Scenario s = make_scenario(sim::test_scenario(1));
  const ShardMap map(s->census, 4);
  std::size_t resolved = 0;
  for (const syslog::ReceivedLine& rec : s->sim.collector.lines()) {
    if (rec.status() != syslog::ParseStatus::kOk) continue;
    const auto link = s->census.find_by_interface(rec.parse().reporter,
                                                  rec.parse().interface);
    if (!link) continue;
    ++resolved;
    ASSERT_EQ(map.shard_of(rec), map.shard_of(*link))
        << "line routed away from its owning shard: " << rec.line();
  }
  ASSERT_GT(resolved, 0u) << "scenario produced no resolvable lines";
}

TEST(ShardMap, UnparsableLinesGetAStableShardWithoutCrashing) {
  const Scenario s = make_scenario(sim::test_scenario(1));
  const ShardMap map(s->census, 4);
  for (const std::string_view junk :
       {std::string_view("<netfail:replay-end>"), std::string_view(""),
        std::string_view("not a syslog line at all")}) {
    const syslog::ReceivedLine rec(TimePoint{}, std::string(junk));
    const std::uint32_t first = map.shard_of(rec);
    ASSERT_LT(first, 4u);
    EXPECT_EQ(map.shard_of(rec), first);  // deterministic
    // The fallback is the raw-byte FNV hash, fixed like the link hash.
    EXPECT_EQ(first, static_cast<std::uint32_t>(stable_hash64(junk) % 4));
  }
}

// ---- sharded differential sweep ---------------------------------------------

/// Run the capture through `shards` partitioned engines with the gateway's
/// routing discipline (syslog routed by ShardMap::shard_of, LSPs broadcast)
/// and merge. `shards == 1` is the serial reference.
std::string run_sharded_digest(const analysis::PipelineCapture& s,
                               AmbiguityPolicy policy, std::uint32_t shards,
                               bool detect, MergedRun* merged_out = nullptr) {
  const ShardMap map(s.census, shards);
  std::vector<std::unique_ptr<StreamEngine>> engines;
  std::vector<ShardRun> runs(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    EngineOptions options;
    options.tracker.reconstruct.period = s.period;
    options.tracker.reconstruct.policy = policy;
    options.detect.enabled = detect;
    options.partition = &map;
    options.shard = i;
    engines.push_back(std::make_unique<StreamEngine>(s.census, options));
    StreamEngine& e = *engines.back();
    ShardRun& run = runs[i];
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
    e.isis_tracker().on_flap_episode =
        [&run](const analysis::FlapEpisode& ep) {
          run.isis_episodes.push_back(ep);
        };
    e.syslog_tracker().on_flap_episode =
        [&run](const analysis::FlapEpisode& ep) {
          run.syslog_episodes.push_back(ep);
        };
  }

  EventMux mux =
      EventMux::over_vectors(s.sim.collector.lines(), s.sim.listener.records());
  while (std::optional<StreamEvent> ev = mux.next()) {
    if (ev->kind() == EventKind::kSyslogLine) {
      engines[map.shard_of(ev->line())]->feed(*ev);
    } else {
      for (auto& e : engines) e->feed(*ev);
    }
  }
  for (std::uint32_t i = 0; i < shards; ++i) {
    engines[i]->finish();
    runs[i].alerts = engines[i]->detector().sink().snapshot();
    runs[i].engine = engines[i].get();
  }
  MergedRun merged = merge_shard_runs(runs);
  std::string digest = render_digest(merged, s.census);
  if (merged_out != nullptr) *merged_out = std::move(merged);
  return digest;
}

TEST(ShardedDifferential, DigestIsShardCountInvariantAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = make_scenario(sim::test_scenario(seed));
    MergedRun serial;
    const std::string reference = run_sharded_digest(
        *s, AmbiguityPolicy::kAssumeUp, 1, /*detect=*/false, &serial);
    ASSERT_GT(serial.isis.failures.size(), 0u);
    ASSERT_GT(serial.syslog.failures.size(), 0u);
    for (const std::uint32_t shards : {2u, 4u}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      EXPECT_EQ(reference, run_sharded_digest(*s, AmbiguityPolicy::kAssumeUp,
                                              shards, /*detect=*/false));
    }
  }
}

TEST(ShardedDifferential, DigestIsShardCountInvariantForEveryPolicy) {
  const Scenario s = make_scenario(sim::test_scenario(11));
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    SCOPED_TRACE(analysis::ambiguity_policy_name(policy));
    const std::string reference =
        run_sharded_digest(*s, policy, 1, /*detect=*/false);
    for (const std::uint32_t shards : {2u, 4u}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      EXPECT_EQ(reference,
                run_sharded_digest(*s, policy, shards, /*detect=*/false));
    }
  }
}

TEST(ShardedDifferential, DetectionAlertsAreShardCountInvariant) {
  // Detector state (CUSUM, drift cells) is strictly per-link, so the union
  // of shard alerts must be the serial alert set — including scores and
  // the per-link emission order the canonical digest ordering preserves.
  const Scenario s = make_scenario(sim::test_scenario(2));
  MergedRun serial;
  const std::string reference = run_sharded_digest(
      *s, AmbiguityPolicy::kAssumeUp, 1, /*detect=*/true, &serial);
  ASSERT_GT(serial.alerts_emitted, 0u) << "scenario produced no alerts";
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EXPECT_EQ(reference, run_sharded_digest(*s, AmbiguityPolicy::kAssumeUp,
                                            shards, /*detect=*/true));
  }
}

TEST(ShardedDifferential, PaperScaleDigestMatchesAcrossShardCounts) {
  // The full CENIC-scale capture: hundreds of links, ~10^5 events. This is
  // the run the multi-core gateway exists for; byte-identity here is the
  // acceptance gate for the whole partition + merge design.
  const Scenario s = make_scenario(sim::cenic_scenario());
  MergedRun serial;
  const std::string reference = run_sharded_digest(
      *s, AmbiguityPolicy::kAssumeUp, 1, /*detect=*/false, &serial);
  ASSERT_GT(serial.isis.failures.size(), 100u);
  EXPECT_EQ(reference, run_sharded_digest(*s, AmbiguityPolicy::kAssumeUp, 4,
                                          /*detect=*/false));
}

}  // namespace
}  // namespace netfail::stream
