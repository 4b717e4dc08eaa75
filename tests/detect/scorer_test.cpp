// Scorer join semantics over hand-built ground truth: the match window,
// the hard-failure recall denominator, listener-gap exclusion, link-name
// resolution, per-class slices, ticket corroboration, and lead times.
#include "src/detect/scorer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace netfail::detect {
namespace {

class ScorerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    period_ = TimeRange{TimePoint::from_civil(2011, 1, 1),
                        TimePoint::from_civil(2011, 2, 1)};
    ab_ = census_.add_link(
        CensusEndpoint{"a-core-1", "Te0/0", Ipv4Address(10, 0, 0, 0)},
        CensusEndpoint{"b-core-1", "Te0/0", Ipv4Address(10, 0, 0, 1)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 0), 31}, period_, RouterClass::kCore);
    bc_ = census_.add_link(
        CensusEndpoint{"b-core-1", "Te0/1", Ipv4Address(10, 0, 0, 2)},
        CensusEndpoint{"edu001-gw-1", "Gi0/0", Ipv4Address(10, 0, 0, 3)},
        Ipv4Prefix{Ipv4Address(10, 0, 0, 2), 31}, period_, RouterClass::kCpe);
    census_.finalize();
    ab_name_ = census_.link(ab_).name;
    bc_name_ = census_.link(bc_).name;
  }

  TimePoint at(std::int64_t minutes) const {
    return period_.begin + Duration::minutes(minutes);
  }

  sim::TrueFailure hard_failure(const std::string& name, std::int64_t begin_min,
                                std::int64_t end_min,
                                sim::FailureClass cls =
                                    sim::FailureClass::kMediaFailure) const {
    sim::TrueFailure f;
    f.link_name = name;
    f.cls = cls;
    f.adjacency_down = TimeRange{at(begin_min), at(end_min)};
    if (cls == sim::FailureClass::kMediaFailure) {
      f.media_down = f.adjacency_down;
    }
    return f;
  }

  LinkAlert alert(LinkId link, std::int64_t minutes,
                  AlertKind kind = AlertKind::kHardDown) const {
    LinkAlert a;
    a.link = link;
    a.time = at(minutes);
    a.kind = kind;
    return a;
  }

  TimeRange period_;
  LinkCensus census_;
  TicketStore tickets_;
  LinkId ab_, bc_;
  std::string ab_name_, bc_name_;
};

TEST_F(ScorerTest, EmptyInputsScorePerfect) {
  const ScoreReport r =
      score_alerts({}, sim::GroundTruth(), census_, tickets_);
  EXPECT_EQ(r.alerts_total, 0u);
  EXPECT_EQ(r.failures_considered, 0u);
  EXPECT_DOUBLE_EQ(r.precision(), 1.0);
  EXPECT_DOUBLE_EQ(r.recall(), 1.0);
}

TEST_F(ScorerTest, AlertInsideOutageMatches) {
  sim::GroundTruth truth;
  truth.add_failure(hard_failure(ab_name_, 60, 120));
  const ScoreReport r =
      score_alerts({alert(ab_, 70)}, truth, census_, tickets_);
  EXPECT_EQ(r.alerts_matched, 1u);
  EXPECT_EQ(r.failures_considered, 1u);
  EXPECT_EQ(r.failures_detected, 1u);
  EXPECT_DOUBLE_EQ(r.precision(), 1.0);
  EXPECT_DOUBLE_EQ(r.recall(), 1.0);
  EXPECT_EQ(r.media.considered, 1u);
  EXPECT_EQ(r.media.detected, 1u);
  // Lead = recovery - first alert.
  EXPECT_EQ(r.lead_samples, 1u);
  EXPECT_EQ(r.lead_mean(), Duration::minutes(50));
  EXPECT_EQ(r.lead_median, Duration::minutes(50));
}

TEST_F(ScorerTest, AlertOnQuietLinkIsFalsePositive) {
  sim::GroundTruth truth;
  truth.add_failure(hard_failure(ab_name_, 60, 120));
  const ScoreReport r = score_alerts({alert(ab_, 70), alert(bc_, 70)}, truth,
                                     census_, tickets_);
  EXPECT_EQ(r.alerts_total, 2u);
  EXPECT_EQ(r.alerts_matched, 1u);
  EXPECT_DOUBLE_EQ(r.precision(), 0.5);
  EXPECT_DOUBLE_EQ(r.recall(), 1.0);
}

TEST_F(ScorerTest, LeadWindowAndGraceBoundTheMatch) {
  sim::GroundTruth truth;
  truth.add_failure(hard_failure(ab_name_, 60, 120));
  static_assert(kLeadWindow == Duration::minutes(15));
  static_assert(kGrace == Duration::seconds(60));
  // 50 min: 10 min before onset, inside the lead window. 44 min: outside.
  // 121 min: inside grace. 130 min: outside.
  const ScoreReport r = score_alerts(
      {alert(ab_, 44), alert(ab_, 50), alert(ab_, 121), alert(ab_, 130)},
      truth, census_, tickets_);
  EXPECT_EQ(r.alerts_matched, 2u);
  EXPECT_EQ(r.failures_detected, 1u);
  // First matching alert (t=50) sets the lead: 120 - 50 = 70 min.
  EXPECT_EQ(r.lead_mean(), Duration::minutes(70));
}

TEST_F(ScorerTest, PseudoFailureAbsorbsAlertButNotRecall) {
  // A pseudo-failure (syslog-only reset) carries no adjacency outage; the
  // scorer uses its media span for precision matching and keeps it out of
  // the recall denominator.
  sim::GroundTruth truth;
  sim::TrueFailure pseudo;
  pseudo.link_name = ab_name_;
  pseudo.cls = sim::FailureClass::kPseudoFailure;
  pseudo.media_down = TimeRange{at(60), at(61)};
  truth.add_failure(pseudo);
  const ScoreReport r =
      score_alerts({alert(ab_, 60, AlertKind::kFlapCusum)}, truth, census_,
                   tickets_);
  EXPECT_EQ(r.alerts_matched, 1u);
  EXPECT_EQ(r.failures_considered, 0u);
  EXPECT_DOUBLE_EQ(r.precision(), 1.0);
  EXPECT_DOUBLE_EQ(r.recall(), 1.0);
}

TEST_F(ScorerTest, ListenerGapFailuresAreExcluded) {
  sim::GroundTruth truth;
  truth.add_failure(hard_failure(ab_name_, 60, 120));
  truth.add_failure(hard_failure(bc_name_, 200, 260));
  IntervalSet gaps;
  gaps.add(TimeRange{at(100), at(110)});  // overlaps the first failure
  truth.set_listener_gaps(gaps);

  const ScoreReport r = score_alerts({}, truth, census_, tickets_);
  EXPECT_EQ(r.failures_considered, 1u);
  EXPECT_EQ(r.failures_excluded, 1u);
}

TEST_F(ScorerTest, UnresolvableLinkNamesAreCountedNotScored) {
  sim::GroundTruth truth;
  truth.add_failure(hard_failure("no-such:link|anywhere:at-all", 60, 120));
  const ScoreReport r = score_alerts({}, truth, census_, tickets_);
  EXPECT_EQ(r.unresolved_links, 1u);
  EXPECT_EQ(r.failures_considered, 0u);
}

TEST_F(ScorerTest, SlicesAndTicketCorroboration) {
  sim::GroundTruth truth;
  sim::TrueFailure long_outage = hard_failure(ab_name_, 60, 60 + 48 * 60);
  long_outage.ticketed = true;
  truth.add_failure(long_outage);
  sim::TrueFailure flappy =
      hard_failure(bc_name_, 10, 11, sim::FailureClass::kProtocolFailure);
  flappy.in_flap_episode = true;
  truth.add_failure(flappy);
  tickets_.file(ab_name_, TimeRange{at(50), at(60 + 48 * 60)}, "fiber cut");

  const ScoreReport r = score_alerts(
      {alert(ab_, 65), alert(bc_, 10, AlertKind::kFlapCusum)}, truth,
      census_, tickets_);
  EXPECT_EQ(r.media.considered, 1u);
  EXPECT_EQ(r.media.detected, 1u);
  EXPECT_EQ(r.protocol.considered, 1u);
  EXPECT_EQ(r.protocol.detected, 1u);
  EXPECT_EQ(r.flapping.considered, 1u);
  EXPECT_EQ(r.ticketed.considered, 1u);
  EXPECT_EQ(r.ticketed.detected, 1u);
  EXPECT_EQ(r.tickets_corroborated, 1u);
}

TEST_F(ScorerTest, AlertKindsAreTallied) {
  sim::GroundTruth truth;
  const ScoreReport r = score_alerts(
      {alert(ab_, 1, AlertKind::kHardDown),
       alert(ab_, 2, AlertKind::kFlapCusum),
       alert(ab_, 3, AlertKind::kFlapCusum),
       alert(ab_, 4, AlertKind::kTemplateDrift)},
      truth, census_, tickets_);
  EXPECT_EQ(r.alerts_hard_down, 1u);
  EXPECT_EQ(r.alerts_flap_cusum, 2u);
  EXPECT_EQ(r.alerts_template_drift, 1u);
  EXPECT_DOUBLE_EQ(r.precision(), 0.0);
}

}  // namespace
}  // namespace netfail::detect
