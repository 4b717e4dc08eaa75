// The keystone guarantee of netfail::stream: feeding the engine the same
// raw captures the batch pipeline reads must produce interval-identical
// reconstructions — same failures, same ambiguous segments, same flap
// episodes, same FSM counters — for every ambiguity policy. The streaming
// path shares the extractor and LinkWalker code with the batch path, so any
// divergence here means the reorder/watermark/retraction machinery broke
// the ordering contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/analysis/flaps.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"

namespace netfail::stream {
namespace {

using analysis::AmbiguityPolicy;

struct BatchSide {
  analysis::Reconstruction isis;
  analysis::Reconstruction syslog;
  std::vector<analysis::FlapEpisode> isis_episodes;
  std::vector<analysis::FlapEpisode> syslog_episodes;
};

struct StreamSide {
  std::vector<analysis::Failure> isis_failures;
  std::vector<analysis::Failure> syslog_failures;
  std::vector<analysis::AmbiguousSegment> isis_ambiguous;
  std::vector<analysis::AmbiguousSegment> syslog_ambiguous;
  std::vector<analysis::FlapEpisode> isis_episodes;
  std::vector<analysis::FlapEpisode> syslog_episodes;
  TrackerCounters isis_counters;
  TrackerCounters syslog_counters;
};

// Captures come from the process-wide ScenarioCache: each seed is simulated
// and mined once even though several tests (and the batch + stream sides)
// read it, and the capture is shared immutably with any bench/test binary
// code running in the same process.
using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario make_scenario(const sim::ScenarioParams& params) {
  return analysis::ScenarioCache::global().capture(params);
}

BatchSide run_batch(const analysis::PipelineCapture& s, AmbiguityPolicy policy) {
  BatchSide out;
  analysis::ReconstructOptions opts;
  opts.policy = policy;
  analysis::Reconstructed r = analysis::extract_and_reconstruct(s.view(), opts);
  out.isis = std::move(r.isis_recon);
  out.syslog = std::move(r.syslog_recon);
  // Flap detection over the *unsanitized* reconstruction — the streaming
  // engine sees no listener-gap or ticket oracle.
  out.isis_episodes = analysis::detect_flaps(out.isis.failures).episodes;
  out.syslog_episodes = analysis::detect_flaps(out.syslog.failures).episodes;
  return out;
}

StreamSide run_stream(const analysis::PipelineCapture& s,
                      AmbiguityPolicy policy) {
  StreamSide out;
  EngineOptions options;
  options.tracker.reconstruct.period = s.period;
  options.tracker.reconstruct.policy = policy;
  StreamEngine engine(s.census, options);
  engine.isis_tracker().on_failure = [&](const analysis::Failure& f) {
    out.isis_failures.push_back(f);
  };
  engine.syslog_tracker().on_failure = [&](const analysis::Failure& f) {
    out.syslog_failures.push_back(f);
  };
  engine.isis_tracker().on_ambiguous =
      [&](const analysis::AmbiguousSegment& a) {
        out.isis_ambiguous.push_back(a);
      };
  engine.syslog_tracker().on_ambiguous =
      [&](const analysis::AmbiguousSegment& a) {
        out.syslog_ambiguous.push_back(a);
      };
  engine.isis_tracker().on_flap_episode = [&](const analysis::FlapEpisode& e) {
    out.isis_episodes.push_back(e);
  };
  engine.syslog_tracker().on_flap_episode =
      [&](const analysis::FlapEpisode& e) {
        out.syslog_episodes.push_back(e);
      };

  EventMux mux =
      EventMux::over_vectors(s.sim.collector.lines(), s.sim.listener.records());
  while (std::optional<StreamEvent> ev = mux.next()) engine.feed(*ev);
  engine.finish();
  out.isis_counters = engine.isis_tracker().counters();
  out.syslog_counters = engine.syslog_tracker().counters();
  return out;
}

// Canonical orderings for multiset comparison: batch emits failures sorted
// by (begin, link), the stream emits them in release order.
auto failure_key(const analysis::Failure& f) {
  return std::make_tuple(f.link, f.span.begin, f.span.end, f.source);
}
auto ambiguous_key(const analysis::AmbiguousSegment& a) {
  return std::make_tuple(a.link, a.first_message, a.second_message,
                         a.repeated_dir);
}
auto episode_key(const analysis::FlapEpisode& e) {
  return std::make_tuple(e.link, e.span.begin, e.span.end, e.failure_count);
}

template <typename T, typename KeyFn>
std::vector<T> sorted_by(std::vector<T> v, KeyFn key) {
  std::sort(v.begin(), v.end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
  return v;
}

void expect_failures_equal(const std::vector<analysis::Failure>& batch,
                           const std::vector<analysis::Failure>& streamed,
                           const char* label) {
  const auto b = sorted_by(batch, failure_key);
  const auto s = sorted_by(streamed, failure_key);
  ASSERT_EQ(b.size(), s.size()) << label;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(failure_key(b[i]), failure_key(s[i]))
        << label << " failure " << i << ": batch " << b[i].link.to_string()
        << " [" << b[i].span.begin.to_string() << ", "
        << b[i].span.end.to_string() << ") vs stream "
        << s[i].link.to_string() << " [" << s[i].span.begin.to_string()
        << ", " << s[i].span.end.to_string() << ")";
  }
}

void expect_equivalent(const BatchSide& batch, const StreamSide& streamed) {
  expect_failures_equal(batch.isis.failures, streamed.isis_failures, "isis");
  expect_failures_equal(batch.syslog.failures, streamed.syslog_failures,
                        "syslog");

  EXPECT_EQ(sorted_by(batch.isis.ambiguous, ambiguous_key).size(),
            streamed.isis_ambiguous.size());
  {
    const auto b = sorted_by(batch.isis.ambiguous, ambiguous_key);
    const auto s = sorted_by(streamed.isis_ambiguous, ambiguous_key);
    ASSERT_EQ(b.size(), s.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(ambiguous_key(b[i]), ambiguous_key(s[i])) << "isis amb " << i;
    }
  }
  {
    const auto b = sorted_by(batch.syslog.ambiguous, ambiguous_key);
    const auto s = sorted_by(streamed.syslog_ambiguous, ambiguous_key);
    ASSERT_EQ(b.size(), s.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(ambiguous_key(b[i]), ambiguous_key(s[i]))
          << "syslog amb " << i;
    }
  }

  // FSM counters must agree exactly.
  EXPECT_EQ(batch.isis.double_downs, streamed.isis_counters.double_downs);
  EXPECT_EQ(batch.isis.double_ups, streamed.isis_counters.double_ups);
  EXPECT_EQ(batch.isis.merged_duplicates,
            streamed.isis_counters.merged_duplicates);
  EXPECT_EQ(batch.isis.unterminated, streamed.isis_counters.unterminated);
  EXPECT_EQ(batch.syslog.double_downs, streamed.syslog_counters.double_downs);
  EXPECT_EQ(batch.syslog.double_ups, streamed.syslog_counters.double_ups);
  EXPECT_EQ(batch.syslog.merged_duplicates,
            streamed.syslog_counters.merged_duplicates);
  EXPECT_EQ(batch.syslog.unterminated, streamed.syslog_counters.unterminated);

  // Online flap episodes reproduce the batch regrouping pass.
  {
    const auto b = sorted_by(batch.isis_episodes, episode_key);
    const auto s = sorted_by(streamed.isis_episodes, episode_key);
    ASSERT_EQ(b.size(), s.size()) << "isis episodes";
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(episode_key(b[i]), episode_key(s[i])) << "isis episode " << i;
    }
  }
  {
    const auto b = sorted_by(batch.syslog_episodes, episode_key);
    const auto s = sorted_by(streamed.syslog_episodes, episode_key);
    ASSERT_EQ(b.size(), s.size()) << "syslog episodes";
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(episode_key(b[i]), episode_key(s[i]))
          << "syslog episode " << i;
    }
  }
}

TEST(StreamDifferential, SmallScenarioSeedSweep) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = make_scenario(sim::test_scenario(seed));
    ASSERT_GT(s->sim.collector.size(), 0u);
    const BatchSide batch = run_batch(*s, AmbiguityPolicy::kAssumeUp);
    const StreamSide streamed = run_stream(*s, AmbiguityPolicy::kAssumeUp);
    ASSERT_GT(batch.isis.failures.size(), 0u);
    ASSERT_GT(batch.syslog.failures.size(), 0u);
    expect_equivalent(batch, streamed);
  }
}

TEST(StreamDifferential, AllPoliciesAgree) {
  const Scenario s = make_scenario(sim::test_scenario(11));
  for (const AmbiguityPolicy policy :
       {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
        AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
    SCOPED_TRACE(analysis::ambiguity_policy_name(policy));
    expect_equivalent(run_batch(*s, policy), run_stream(*s, policy));
  }
}

TEST(StreamDifferential, FullCenicScenario) {
  // The paper-scale run: ~70k syslog lines + the full LSP capture. The
  // streaming reconstruction must match the batch one interval-for-interval.
  const Scenario s = make_scenario(sim::cenic_scenario());
  const BatchSide batch = run_batch(*s, AmbiguityPolicy::kAssumeUp);
  const StreamSide streamed = run_stream(*s, AmbiguityPolicy::kAssumeUp);
  ASSERT_GT(batch.isis.failures.size(), 100u);
  ASSERT_GT(batch.syslog.failures.size(), 100u);
  expect_equivalent(batch, streamed);
}

TEST(StreamDifferential, StateStaysBounded) {
  // O(links + window), not O(events): the high-water mark of buffered
  // transitions must stay far below the event count (it is bounded by the
  // number of transitions arriving within one reorder horizon).
  const Scenario s = make_scenario(sim::test_scenario(3));
  const StreamSide streamed = run_stream(*s, AmbiguityPolicy::kAssumeUp);
  const std::uint64_t total =
      streamed.isis_counters.transitions_ingested +
      streamed.syslog_counters.transitions_ingested;
  ASSERT_GT(total, 0u);
  EXPECT_LT(streamed.isis_counters.pending_peak +
                streamed.syslog_counters.pending_peak,
            total / 4 + 64);
}

}  // namespace
}  // namespace netfail::stream
