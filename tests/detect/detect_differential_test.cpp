// End-to-end guarantees of the detection stage:
//
//   - Determinism: the alert stream and the rendered precision/recall
//     table are byte-identical between two runs of each seed and
//     ambiguity policy, and across repeated runs (the lint determinism
//     roster covers src/detect; this is the runtime proof).
//   - Checkpoint/resume: a resumed engine emits exactly the alerts the
//     uninterrupted run would have emitted.
//   - Accuracy: on the CENIC-scale scenario with default knobs the scorer
//     reports precision >= 0.9 and recall >= 0.8 against injected ground
//     truth.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"
#include "src/detect/scorer.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"

namespace netfail::detect {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario make_scenario(const sim::ScenarioParams& params) {
  return analysis::ScenarioCache::global().capture(params);
}

struct DetectRun {
  std::vector<LinkAlert> alerts;
  ScoreReport report;
  std::string table;
  std::uint64_t checkpoint_alerts = 0;
};

auto alert_key(const LinkAlert& a) {
  return std::make_tuple(a.link.value(), a.time.unix_millis(),
                         static_cast<int>(a.kind), a.score,
                         a.template_id.value());
}

void expect_same_alerts(const std::vector<LinkAlert>& a,
                        const std::vector<LinkAlert>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(alert_key(a[i]), alert_key(b[i])) << label << " alert " << i;
  }
}

DetectRun run_detect(const analysis::PipelineCapture& s,
                     analysis::AmbiguityPolicy policy) {
  stream::EngineOptions options;
  options.tracker.reconstruct.period = s.period;
  options.tracker.reconstruct.policy = policy;
  options.detect.enabled = true;
  stream::StreamEngine engine(s.census, options);
  stream::EventMux mux = stream::EventMux::over_vectors(
      s.sim.collector.lines(), s.sim.listener.records());
  while (std::optional<stream::StreamEvent> ev = mux.next()) engine.feed(*ev);
  engine.finish();

  DetectRun out;
  out.checkpoint_alerts = engine.checkpoint().alerts_emitted();
  out.alerts = engine.detector().sink().snapshot();
  out.report =
      score_alerts(out.alerts, s.sim.truth, s.census, s.sim.tickets);
  out.table = analysis::render_detection_scores(out.report);
  return out;
}

TEST(DetectDifferential, DisabledDetectionEmitsNothing) {
  const Scenario s = make_scenario(sim::test_scenario(1));
  stream::EngineOptions options;
  options.tracker.reconstruct.period = s->period;
  stream::StreamEngine engine(s->census, options);
  stream::EventMux mux = stream::EventMux::over_vectors(
      s->sim.collector.lines(), s->sim.listener.records());
  while (std::optional<stream::StreamEvent> ev = mux.next()) engine.feed(*ev);
  engine.finish();
  EXPECT_EQ(engine.detector().alerts_emitted(), 0u);
  EXPECT_EQ(engine.checkpoint().alerts_emitted(), 0u);
  EXPECT_EQ(engine.detector().counters().syslog_observed, 0u);
}

TEST(DetectDifferential, SeedPolicyThreadSweepIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Scenario s = make_scenario(sim::test_scenario(seed));
    for (const analysis::AmbiguityPolicy policy :
         {analysis::AmbiguityPolicy::kAssumeUp,
          analysis::AmbiguityPolicy::kDrop}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                   analysis::ambiguity_policy_name(policy));
      const DetectRun first = run_detect(*s, policy);
      const DetectRun second = run_detect(*s, policy);
      ASSERT_GT(first.alerts.size(), 0u);
      expect_same_alerts(first.alerts, second.alerts, "seed x policy");
      EXPECT_EQ(first.table, second.table);
      EXPECT_EQ(first.checkpoint_alerts, second.checkpoint_alerts);
    }
  }
}

TEST(DetectDifferential, RepeatedRunsAreStable) {
  const Scenario s = make_scenario(sim::test_scenario(5));
  const DetectRun first = run_detect(*s, analysis::AmbiguityPolicy::kAssumeUp);
  for (int i = 0; i < 3; ++i) {
    const DetectRun again =
        run_detect(*s, analysis::AmbiguityPolicy::kAssumeUp);
    expect_same_alerts(first.alerts, again.alerts, "repeat");
    EXPECT_EQ(first.table, again.table);
  }
}

TEST(DetectDifferential, CheckpointResumeEmitsSameAlerts) {
  const Scenario s = make_scenario(sim::test_scenario(13));
  stream::EngineOptions options;
  options.tracker.reconstruct.period = s->period;
  options.detect.enabled = true;

  // Uninterrupted reference run.
  const DetectRun reference =
      run_detect(*s, analysis::AmbiguityPolicy::kAssumeUp);

  // Interrupted run: checkpoint mid-stream, resume, finish on the copy.
  stream::StreamEngine engine(s->census, options);
  stream::EventMux mux = stream::EventMux::over_vectors(
      s->sim.collector.lines(), s->sim.listener.records());
  const std::uint64_t total =
      s->sim.collector.lines().size() + s->sim.listener.records().size();
  std::uint64_t fed = 0;
  std::optional<stream::Checkpoint> cp;
  while (std::optional<stream::StreamEvent> ev = mux.next()) {
    if (fed == total / 2) {
      cp = engine.checkpoint();
      stream::StreamEngine resumed = stream::StreamEngine::resume(*cp);
      engine = std::move(resumed);
      EXPECT_EQ(cp->alerts_emitted(), engine.detector().alerts_emitted());
    }
    engine.feed(*ev);
    ++fed;
  }
  engine.finish();
  ASSERT_TRUE(cp.has_value());
  expect_same_alerts(reference.alerts, engine.detector().sink().snapshot(),
                     "resume");
  // The mid-stream checkpoint saw a prefix of the final alert log.
  EXPECT_LE(cp->alerts_emitted(), engine.detector().alerts_emitted());
}

TEST(DetectDifferential, CenicPrecisionRecallAcceptance) {
  // The acceptance gate: paper-scale scenario, default detector knobs.
  const Scenario s = make_scenario(sim::cenic_scenario());
  const DetectRun run = run_detect(*s, analysis::AmbiguityPolicy::kAssumeUp);
  ASSERT_GT(run.alerts.size(), 100u);
  ASSERT_GT(run.report.failures_considered, 100u);
  EXPECT_GE(run.report.precision(), 0.9)
      << run.report.alerts_matched << " of " << run.report.alerts_total
      << " alerts matched\n"
      << run.table;
  EXPECT_GE(run.report.recall(), 0.8)
      << run.report.failures_detected << " of "
      << run.report.failures_considered << " failures detected\n"
      << run.table;
  // Detection must see failures ahead of the batch pipeline's closing UP.
  EXPECT_GT(run.report.lead_mean(), Duration::millis(0));
  EXPECT_EQ(run.report.unresolved_links, 0u);
}

}  // namespace
}  // namespace netfail::detect
