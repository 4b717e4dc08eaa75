// Unit tests for the three per-link detectors: hard-down rate limiting,
// CUSUM burst detection over inter-DOWN gaps, and template-frequency drift
// with its canonical (link, lexicographic template) emission order.
#include "src/detect/detector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/syslog/message.hpp"

namespace netfail::detect {
namespace {

TimePoint at_minute(std::int64_t m) {
  return TimePoint::from_unix_millis(m * 60 * 1000);
}

syslog::SyslogTransition transition(LinkId link, TimePoint t,
                                    syslog::MessageType type,
                                    LinkDirection dir) {
  syslog::SyslogTransition tr;
  tr.time = t;
  tr.dir = dir;
  tr.type = type;
  tr.cls = syslog::classify(type);
  tr.link = link;
  return tr;
}

syslog::SyslogTransition adj_down(LinkId link, TimePoint t) {
  return transition(link, t, syslog::MessageType::kIsisAdjChange,
                    LinkDirection::kDown);
}

std::vector<LinkAlert> alerts_of_kind(const LinkDetector& d, AlertKind kind) {
  std::vector<LinkAlert> out;
  for (const LinkAlert& a : d.sink().snapshot()) {
    if (a.kind == kind) out.push_back(a);
  }
  return out;
}

DetectorOptions enabled_options() {
  DetectorOptions o;
  o.enabled = true;
  return o;
}

TEST(LinkDetector, DisabledDetectorIsInert) {
  LinkDetector d;  // default options: disabled
  const LinkId link(1);
  d.observe_isis(link, at_minute(0), LinkDirection::kDown);
  d.observe_syslog(adj_down(link, at_minute(1)), at_minute(1));
  d.finish();
  EXPECT_EQ(d.alerts_emitted(), 0u);
  EXPECT_EQ(d.counters().syslog_observed, 0u);
  EXPECT_EQ(d.counters().isis_observed, 0u);
  EXPECT_EQ(d.counters().windows_closed, 0u);
}

TEST(LinkDetector, HardDownAlertsImmediately) {
  LinkDetector d(enabled_options());
  const LinkId link(7);
  d.observe_isis(link, at_minute(10), LinkDirection::kDown);
  d.finish();
  const auto hard = alerts_of_kind(d, AlertKind::kHardDown);
  ASSERT_EQ(hard.size(), 1u);
  EXPECT_EQ(hard[0].link, link);
  EXPECT_EQ(hard[0].time, at_minute(10));
  EXPECT_EQ(hard[0].score, 0.0);
}

TEST(LinkDetector, HardDownCooldownRateLimitsPerLink) {
  LinkDetector d(enabled_options());  // cooldown 5 min
  const LinkId a(1), b(2);
  d.observe_isis(a, at_minute(0), LinkDirection::kDown);
  d.observe_isis(a, at_minute(1), LinkDirection::kDown);  // suppressed
  d.observe_isis(b, at_minute(1), LinkDirection::kDown);  // other link fires
  d.observe_isis(a, at_minute(6), LinkDirection::kDown);  // cooldown expired
  d.finish();
  EXPECT_EQ(alerts_of_kind(d, AlertKind::kHardDown).size(), 3u);
}

TEST(LinkDetector, HardDownIgnoresUpTransitions) {
  LinkDetector d(enabled_options());
  d.observe_isis(LinkId(1), at_minute(0), LinkDirection::kUp);
  d.finish();
  EXPECT_EQ(d.alerts_emitted(), 0u);
  EXPECT_EQ(d.counters().isis_observed, 1u);
}

TEST(LinkDetector, CusumFiresOnGapBurst) {
  LinkDetector d(enabled_options());
  const LinkId link(3);
  // Establish a ~10 minute baseline gap, then burst with 1-second gaps.
  // Each short gap contributes ~1 - 1/600 - 0.25 ~= 0.75 of surprise, so
  // the default threshold of 3.0 trips on the burst.
  TimePoint t = at_minute(0);
  for (int i = 0; i < 4; ++i) {
    d.observe_syslog(adj_down(link, t), t);
    t = t + Duration::minutes(10);
  }
  for (int i = 0; i < 8; ++i) {
    d.observe_syslog(adj_down(link, t), t);
    t = t + Duration::seconds(1);
  }
  d.finish();
  const auto cusum = alerts_of_kind(d, AlertKind::kFlapCusum);
  ASSERT_GE(cusum.size(), 1u);
  EXPECT_EQ(cusum[0].link, link);
  EXPECT_GE(cusum[0].score, 3.0);
}

TEST(LinkDetector, CusumSilentOnSteadyCadence) {
  LinkDetector d(enabled_options());
  const LinkId link(3);
  // Gaps exactly at the mean never accumulate (surprise = -drift < 0).
  TimePoint t = at_minute(0);
  for (int i = 0; i < 50; ++i) {
    d.observe_syslog(adj_down(link, t), t);
    t = t + Duration::minutes(10);
  }
  d.finish();
  EXPECT_EQ(alerts_of_kind(d, AlertKind::kFlapCusum).size(), 0u);
}

TEST(LinkDetector, CusumRearmsAfterFiring) {
  LinkDetector d(enabled_options());
  const LinkId link(3);
  TimePoint t = at_minute(0);
  for (int i = 0; i < 4; ++i) {
    d.observe_syslog(adj_down(link, t), t);
    t = t + Duration::minutes(10);
  }
  // A burst of short gaps that outlasts the alert cooldown: the CUSUM
  // fires, re-arms, and fires again once kAlertCooldown has passed.
  const TimePoint burst_end = t + kAlertCooldown + Duration::minutes(1);
  while (t < burst_end) {
    d.observe_syslog(adj_down(link, t), t);
    t = t + Duration::seconds(2);
  }
  d.finish();
  const std::vector<LinkAlert> cusum = alerts_of_kind(d, AlertKind::kFlapCusum);
  ASSERT_GE(cusum.size(), 2u);
  EXPECT_GE(cusum[1].time - cusum[0].time, kAlertCooldown);
}

TEST(LinkDetector, DriftFiresOnWindowBurst) {
  LinkDetector d(enabled_options());
  const LinkId link(5);
  TimePoint t = at_minute(0);
  for (int i = 0; i < 8; ++i) {
    d.observe_syslog(transition(link, t, syslog::MessageType::kLinkUpDown,
                                LinkDirection::kDown),
                     t);
    t = t + Duration::seconds(10);
  }
  const TimePoint last = t - Duration::seconds(10);
  d.finish();  // closes the open window
  const auto drift = alerts_of_kind(d, AlertKind::kTemplateDrift);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_EQ(drift[0].link, link);
  // Alert time is the last contributing event, not the window boundary.
  EXPECT_EQ(drift[0].time, last);
  EXPECT_EQ(drift[0].template_id.view(), "LINK/down");
  EXPECT_GE(drift[0].score, 4.0);  // 8 / (0 + 1) against a cold baseline
  EXPECT_EQ(d.counters().windows_closed, 1u);
}

TEST(LinkDetector, DriftBaselineAbsorbsRecurringLoad) {
  LinkDetector d(enabled_options());
  const LinkId link(5);
  // The same 8-message load every window: the first window alerts against
  // the cold baseline, then the EWMA catches up and later windows do not.
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 8; ++i) {
      const TimePoint t =
          at_minute(10 * w) + Duration::seconds(10 * (i + 1));
      d.observe_syslog(transition(link, t, syslog::MessageType::kLinkUpDown,
                                  LinkDirection::kDown),
                       t);
    }
  }
  d.finish();
  const auto drift = alerts_of_kind(d, AlertKind::kTemplateDrift);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_EQ(drift[0].time.unix_millis() / (10 * 60 * 1000), 0);
}

TEST(LinkDetector, DriftBelowMinCountNeverFires) {
  LinkDetector d(enabled_options());  // kDriftMinCount = 6
  const LinkId link(5);
  for (int i = 0; i < 5; ++i) {
    const TimePoint t = at_minute(0) + Duration::seconds(10 * i);
    d.observe_syslog(transition(link, t, syslog::MessageType::kLinkUpDown,
                                LinkDirection::kDown),
                     t);
  }
  d.finish();
  EXPECT_EQ(alerts_of_kind(d, AlertKind::kTemplateDrift).size(), 0u);
}

TEST(LinkDetector, DriftEmissionOrderIsCanonical) {
  LinkDetector d(enabled_options());
  const LinkId a(9), b(2);
  // Interleave two links x two templates in one window; the alert order
  // must come out sorted by (link id, lexicographic template) regardless
  // of hash-map iteration order.
  for (int i = 0; i < 8; ++i) {
    const TimePoint t = at_minute(0) + Duration::seconds(4 * i);
    for (const LinkId link : {a, b}) {
      d.observe_syslog(transition(link, t, syslog::MessageType::kLinkUpDown,
                                  LinkDirection::kDown),
                       t);
      d.observe_syslog(
          transition(link, t, syslog::MessageType::kLineProtoUpDown,
                     LinkDirection::kDown),
          t);
    }
  }
  d.finish();
  const auto drift = alerts_of_kind(d, AlertKind::kTemplateDrift);
  ASSERT_EQ(drift.size(), 4u);
  EXPECT_EQ(drift[0].link, b);
  EXPECT_EQ(drift[0].template_id.view(), "LINEPROTO/down");
  EXPECT_EQ(drift[1].link, b);
  EXPECT_EQ(drift[1].template_id.view(), "LINK/down");
  EXPECT_EQ(drift[2].link, a);
  EXPECT_EQ(drift[2].template_id.view(), "LINEPROTO/down");
  EXPECT_EQ(drift[3].link, a);
  EXPECT_EQ(drift[3].template_id.view(), "LINK/down");
}

TEST(LinkDetector, InvalidLinksAreSkipped) {
  LinkDetector d(enabled_options());
  d.observe_syslog(adj_down(LinkId(), at_minute(0)), at_minute(0));
  d.finish();
  EXPECT_EQ(d.counters().syslog_observed, 0u);
  EXPECT_EQ(d.alerts_emitted(), 0u);
}

TEST(LinkDetector, FinishIsIdempotent) {
  LinkDetector d(enabled_options());
  const LinkId link(5);
  for (int i = 0; i < 8; ++i) {
    const TimePoint t = at_minute(0) + Duration::seconds(10 * i);
    d.observe_syslog(transition(link, t, syslog::MessageType::kLinkUpDown,
                                LinkDirection::kDown),
                     t);
  }
  d.finish();
  d.finish();
  EXPECT_EQ(d.counters().windows_closed, 1u);
  EXPECT_EQ(alerts_of_kind(d, AlertKind::kTemplateDrift).size(), 1u);
}

TEST(LinkDetector, CopyIsIndependent) {
  // The stream Checkpoint relies on a plain copy carrying the full
  // detector state and then diverging independently.
  LinkDetector d(enabled_options());
  const LinkId link(7);
  d.observe_isis(link, at_minute(0), LinkDirection::kDown);
  LinkDetector copy = d;
  d.observe_isis(link, at_minute(10), LinkDirection::kDown);
  EXPECT_EQ(d.alerts_emitted(), 2u);
  EXPECT_EQ(copy.alerts_emitted(), 1u);
  copy.observe_isis(link, at_minute(10), LinkDirection::kDown);
  EXPECT_EQ(copy.alerts_emitted(), 2u);
}

}  // namespace
}  // namespace netfail::detect
