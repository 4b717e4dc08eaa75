// Batch extraction diffs LSP sources on concurrent lanes and folds their
// deltas in record order; StreamingExtractor runs the same differ and fold
// back to back per record. Whatever the lane schedule, the two must agree
// exactly: every transition field for field, the ExtractionStats, and the
// isis.extract.* counter deltas.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"
#include "src/isis/extract.hpp"
#include "src/sim/scenario.hpp"

namespace netfail::isis {
namespace {

constexpr std::array<const char*, 4> kCounters = {
    "isis.extract.lsps", "isis.extract.decode_failures",
    "isis.extract.stale_lsps", "isis.extract.transitions"};

std::array<std::uint64_t, 4> counter_values() {
  std::array<std::uint64_t, 4> v{};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    v[i] = metrics::global().counter(kCounters[i]).value();
  }
  return v;
}

struct Run {
  IsisExtraction ex;
  std::array<std::uint64_t, 4> counters{};  // deltas, kCounters order
};

Run run_batch(const std::vector<LspRecord>& records, const LinkCensus& census) {
  Run run;
  const auto before = counter_values();
  run.ex = extract_transitions(records, census);
  const auto after = counter_values();
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    run.counters[i] = after[i] - before[i];
  }
  return run;
}

Run run_stream(const std::vector<LspRecord>& records, const LinkCensus& census) {
  Run run;
  const auto before = counter_values();
  StreamingExtractor extractor(&census);
  std::vector<IsisTransition> emitted;
  for (const LspRecord& rec : records) {
    emitted.clear();
    extractor.feed(rec, emitted);
    for (const IsisTransition& tr : emitted) {
      (tr.field == ReachabilityField::kIsReach ? run.ex.is_reach
                                               : run.ex.ip_reach)
          .push_back(tr);
    }
  }
  run.ex.stats = extractor.stats();
  const auto after = counter_values();
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    run.counters[i] = after[i] - before[i];
  }
  return run;
}

void expect_same_transitions(const std::vector<IsisTransition>& batch,
                             const std::vector<IsisTransition>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    const IsisTransition& b = batch[i];
    const IsisTransition& s = stream[i];
    EXPECT_EQ(b.time, s.time);
    EXPECT_EQ(b.dir, s.dir);
    EXPECT_EQ(b.field, s.field);
    EXPECT_EQ(b.link, s.link);
    EXPECT_EQ(b.multilink, s.multilink);
    EXPECT_EQ(b.host_a, s.host_a);
    EXPECT_EQ(b.host_b, s.host_b);
    EXPECT_EQ(b.pair_count_after, s.pair_count_after);
  }
}

void expect_same_stats(const ExtractionStats& b, const ExtractionStats& s) {
  EXPECT_EQ(b.lsps_processed, s.lsps_processed);
  EXPECT_EQ(b.checksum_failures, s.checksum_failures);
  EXPECT_EQ(b.parse_failures, s.parse_failures);
  EXPECT_EQ(b.stale_lsps, s.stale_lsps);
  EXPECT_EQ(b.purges, s.purges);
  EXPECT_EQ(b.unknown_host_pairs, s.unknown_host_pairs);
  EXPECT_EQ(b.unknown_prefixes, s.unknown_prefixes);
  EXPECT_EQ(b.multilink_transitions, s.multilink_transitions);
}

/// Runs both schedules over `records` and checks they agree; returns the
/// batch side for test-specific coverage assertions.
IsisExtraction expect_schedules_agree(const std::vector<LspRecord>& records,
                                      const LinkCensus& census) {
  const Run stream = run_stream(records, census);
  const Run batch = run_batch(records, census);
  {
    SCOPED_TRACE("IS reachability");
    expect_same_transitions(batch.ex.is_reach, stream.ex.is_reach);
  }
  {
    SCOPED_TRACE("IP reachability");
    expect_same_transitions(batch.ex.ip_reach, stream.ex.ip_reach);
  }
  expect_same_stats(batch.ex.stats, stream.ex.stats);
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    EXPECT_EQ(batch.counters[i], stream.counters[i]) << kCounters[i];
  }
  EXPECT_EQ(batch.counters[0], batch.ex.stats.lsps_processed);
  EXPECT_EQ(batch.counters[1], batch.ex.stats.checksum_failures +
                                   batch.ex.stats.parse_failures);
  EXPECT_EQ(batch.counters[2], batch.ex.stats.stale_lsps);
  EXPECT_EQ(batch.counters[3],
            batch.ex.is_reach.size() + batch.ex.ip_reach.size());
  return batch.ex;
}

// ---- A synthetic capture with every awkward input ---------------------------

struct HostileParams {
  std::uint64_t seed = 1;
  std::size_t routers = 9;    // sources; at most 9 (census below)
  std::size_t records = 0;
  // Records [solo_from, solo_until) all come from h0, uncorrupted (a
  // corrupt source id would count as another source).
  std::size_t solo_from = SIZE_MAX;
  std::size_t solo_until = SIZE_MAX;
};

struct HostileCapture {
  LinkCensus census;
  std::vector<LspRecord> records;
};

/// Routers h0..h8 on a ring of /31 links, with a second h0-h1 link (a
/// multi-link pair). h8 is unknown to the census: it omits TLV 137 on odd
/// sequence numbers (an unnameable source) and names itself otherwise.
/// Even routers omit TLV 137 (named from the census); h3 renames itself
/// half way. Adjacencies to an unknown system id and a /31 outside the
/// census appear at random. Records are corrupted (bad checksum), cut
/// short, replayed (stale sequence) and purged at random, and one router
/// at a time is far busier than the rest so the lanes' load shifts.
HostileCapture make_hostile(const HostileParams& params) {
  constexpr std::size_t kMaxRouters = 9;
  HostileCapture cap;
  Rng rng(params.seed);
  const TimeRange period{TimePoint::from_unix_seconds(0),
                         TimePoint::from_unix_seconds(10'000'000)};
  auto id = [](std::size_t i) {
    return OsiSystemId::from_index(static_cast<std::uint32_t>(i + 1));
  };
  auto name = [](std::size_t i) { return "h" + std::to_string(i); };
  auto subnet = [](std::size_t link) {
    return Ipv4Prefix(Ipv4Address(10, 1, static_cast<std::uint8_t>(link),
                                  0),
                      31);
  };
  for (std::size_t i = 0; i + 1 < kMaxRouters; ++i) {
    cap.census.set_hostname(id(i), name(i));
  }
  // Ring links i -- i+1 (index i), then link kMaxRouters - 1 = second h0-h1.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t i = 0; i < kMaxRouters; ++i) {
    links.emplace_back(i, (i + 1) % kMaxRouters);
  }
  links.emplace_back(0, 1);
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto [a, b] = links[l];
    const Ipv4Prefix p = subnet(l);
    cap.census.add_link(
        CensusEndpoint{name(a), "Te0/" + std::to_string(l), p.network()},
        CensusEndpoint{name(b), "Te1/" + std::to_string(l),
                       Ipv4Address(p.network().value() + 1)},
        p, period, RouterClass::kCore);
  }
  cap.census.finalize();

  const std::size_t n = std::min(params.routers, kMaxRouters);
  const OsiSystemId stranger = OsiSystemId::from_index(4242);
  const Ipv4Prefix stray(Ipv4Address(192, 0, 2, 0), 31);
  // Per-router advertised state, and its last encoded LSPs for replays.
  std::vector<std::map<OsiSystemId, int>> adj(n);
  std::vector<std::set<Ipv4Prefix>> pfx(n);
  std::vector<std::uint32_t> seq(n, 0);
  std::vector<std::vector<std::vector<std::uint8_t>>> sent(n);
  for (std::size_t l = 0; l < links.size(); ++l) {
    const auto [a, b] = links[l];
    if (a >= n || b >= n) continue;
    ++adj[a][id(b)];
    ++adj[b][id(a)];
    pfx[a].insert(subnet(l));
    pfx[b].insert(subnet(l));
  }

  std::size_t busy = 0;
  std::int64_t t = 0;
  while (cap.records.size() < params.records) {
    if (cap.records.size() % 5000 == 0) {
      busy = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    const bool solo = cap.records.size() >= params.solo_from &&
                      cap.records.size() < params.solo_until;
    std::size_t r = 0;
    if (!solo) {
      r = rng.bernoulli(0.6) ? busy
                             : static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(n) - 1));
    }
    t += rng.uniform_int(1, 3);
    const TimePoint at = TimePoint::from_unix_seconds(t);

    if (!sent[r].empty() && rng.bernoulli(0.03)) {  // replay: stale sequence
      const auto& old = sent[r][static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sent[r].size()) - 1))];
      cap.records.push_back(LspRecord{at, old});
      continue;
    }

    // Mutate: toggle a ring/multi-link adjacency, a prefix, the stranger
    // adjacency or the stray prefix; or leave it as a plain refresh.
    const double pick = rng.next_double();
    if (pick < 0.45) {
      const std::size_t l = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1));
      const auto [a, b] = links[l];
      if (a == r || b == r) {
        const OsiSystemId other = id(a == r ? b : a);
        const int cap_count = (l == 0 || l + 1 == links.size()) ? 2 : 1;
        int& c = adj[r][other];
        c = c >= cap_count ? c - 1 : c + 1;
        if (rng.bernoulli(0.5)) {
          if (pfx[r].contains(subnet(l))) {
            pfx[r].erase(subnet(l));
          } else {
            pfx[r].insert(subnet(l));
          }
        }
      }
    } else if (pick < 0.5) {
      int& c = adj[r][stranger];
      c = 1 - c;
    } else if (pick < 0.55) {
      if (pfx[r].contains(stray)) {
        pfx[r].erase(stray);
      } else {
        pfx[r].insert(stray);
      }
    }

    Lsp lsp;
    lsp.source = id(r);
    lsp.sequence = ++seq[r];
    lsp.remaining_lifetime = rng.bernoulli(0.01) ? 0 : 1199;
    const bool renamed = r == 3 && cap.records.size() > params.records / 2;
    if (r == kMaxRouters - 1) {
      if (lsp.sequence % 2 == 0) lsp.hostname = name(r);
    } else if (r % 2 == 1) {
      lsp.hostname = renamed ? "h3-renamed" : name(r);
    }
    for (const auto& [neighbor, count] : adj[r]) {
      for (int k = 0; k < count; ++k) {
        lsp.is_reach.push_back(IsReachEntry{neighbor, 0, 10});
      }
    }
    for (const Ipv4Prefix& p : pfx[r]) {
      lsp.ip_reach.push_back(IpReachEntry{10, p});
    }
    lsp.ip_reach.push_back(  // a loopback: not a /31, never diffed
        IpReachEntry{1, Ipv4Prefix(Ipv4Address(10, 255, 0,
                                               static_cast<std::uint8_t>(r)),
                                   32)});
    std::vector<std::uint8_t> bytes = lsp.encode();
    if (!solo && rng.bernoulli(0.02)) {  // bit rot: the checksum fails
      const std::size_t at_byte = static_cast<std::size_t>(
          rng.uniform_int(12, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at_byte] ^= 0x5a;
    } else if (!solo && rng.bernoulli(0.02)) {  // cut short, maybe to nothing
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
    } else {
      sent[r].push_back(bytes);
      if (sent[r].size() > 8) sent[r].erase(sent[r].begin());
    }
    cap.records.push_back(LspRecord{at, std::move(bytes)});
  }
  return cap;
}

// ---- Tests -------------------------------------------------------------------

TEST(ExtractLanes, SimulatedSeedsMatchStreaming) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::shared_ptr<const analysis::PipelineCapture> cap =
        analysis::ScenarioCache::global().capture(sim::test_scenario(seed));
    const std::vector<LspRecord>& records = cap->sim.listener.records();
    ASSERT_FALSE(records.empty());
    const IsisExtraction ex = expect_schedules_agree(records, cap->census);
    EXPECT_FALSE(ex.is_reach.empty());
    EXPECT_FALSE(ex.ip_reach.empty());
  }
}

TEST(ExtractLanes, HostileCaptureAcrossChunksMatchesStreaming) {
  const HostileCapture cap =
      make_hostile({.seed = 11, .routers = 9, .records = 3 * kExtractChunk});
  ASSERT_GT(cap.records.size(), 2 * kExtractChunk);  // several chunks
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  // Every hostile input reached the extractor.
  const ExtractionStats& st = ex.stats;
  EXPECT_GT(st.checksum_failures, 0u);
  EXPECT_GT(st.parse_failures, 0u);
  EXPECT_GT(st.stale_lsps, 0u);
  EXPECT_GT(st.purges, 0u);
  EXPECT_GT(st.unknown_host_pairs, 0u);
  EXPECT_GT(st.unknown_prefixes, 0u);
  EXPECT_GT(st.multilink_transitions, 0u);
  EXPECT_FALSE(ex.is_reach.empty());
  EXPECT_FALSE(ex.ip_reach.empty());
}

TEST(ExtractLanes, HostileSeedsMatchStreaming) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HostileCapture cap =
        make_hostile({.seed = seed, .routers = 9, .records = 5000});
    expect_schedules_agree(cap.records, cap.census);
  }
}

TEST(ExtractLanes, SingleSourceCaptureUsesOneLane) {
  // One router: every record lands on one lane, across chunks.
  const HostileCapture cap =
      make_hostile({.seed = 5, .routers = 1, .records = kExtractChunk + 777});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_GT(ex.stats.lsps_processed, kExtractChunk / 2);
  EXPECT_TRUE(ex.is_reach.empty());  // no pair ever has both ends reporting
}

TEST(ExtractLanes, LanesFallIdleWhenSourcesGoQuiet) {
  // Every lane has work in the first chunk. The next two hear from one
  // source, so three lanes sit idle while their other buffer still holds
  // the first chunk's deltas; in the last chunk every source is back.
  const HostileCapture cap = make_hostile({.seed = 3,
                                           .routers = 9,
                                           .records = 4 * kExtractChunk,
                                           .solo_from = kExtractChunk,
                                           .solo_until = 3 * kExtractChunk});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_FALSE(ex.is_reach.empty());
}

TEST(ExtractLanes, FewerSourcesThanLanes) {
  static_assert(kExtractLanes > 2);
  for (std::size_t routers = 2; routers < kExtractLanes; ++routers) {
    SCOPED_TRACE(std::to_string(routers) + " sources");
    const HostileCapture cap =
        make_hostile({.seed = 7, .routers = routers, .records = 4000});
    const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
    EXPECT_FALSE(ex.is_reach.empty());
  }
}

TEST(ExtractLanes, EmptyCapture) {
  const HostileCapture cap = make_hostile({.seed = 1, .routers = 3, .records = 0});
  const IsisExtraction ex = expect_schedules_agree(cap.records, cap.census);
  EXPECT_EQ(ex.stats.lsps_processed, 0u);
  EXPECT_TRUE(ex.is_reach.empty());
}

}  // namespace
}  // namespace netfail::isis
