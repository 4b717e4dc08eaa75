#include "src/analysis/match.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/dense_links.hpp"
#include "src/common/rng.hpp"

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }
const LinkId kLink{0};

isis::IsisTransition isis_tr(std::int64_t s, LinkDirection dir,
                             LinkId link = kLink) {
  isis::IsisTransition tr;
  tr.time = at(s);
  tr.dir = dir;
  tr.link = link;
  return tr;
}

syslog::SyslogTransition sys_tr(std::int64_t s, LinkDirection dir,
                                const std::string& reporter,
                                syslog::MessageClass cls =
                                    syslog::MessageClass::kIsisAdjacency,
                                LinkId link = kLink) {
  syslog::SyslogTransition tr;
  tr.time = at(s);
  tr.dir = dir;
  tr.reporter = reporter;
  tr.cls = cls;
  tr.link = link;
  return tr;
}

Failure failure(std::int64_t b, std::int64_t e, Source src,
                LinkId link = kLink) {
  Failure f;
  f.link = link;
  f.span = TimeRange{at(b), at(e)};
  f.source = src;
  return f;
}

TEST(MatchTransitions, NoneOneBoth) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown),  // both ends report
      isis_tr(200, LinkDirection::kDown),  // one end reports
      isis_tr(300, LinkDirection::kDown),  // nobody reports
  };
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(101, LinkDirection::kDown, "a"),
      sys_tr(102, LinkDirection::kDown, "b"),
      sys_tr(205, LinkDirection::kDown, "a"),
  };
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_both, 1u);
  EXPECT_EQ(c.down_one, 1u);
  EXPECT_EQ(c.down_none, 1u);
  EXPECT_EQ(c.down_total(), 3u);
}

TEST(MatchTransitions, WindowEnforced) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(111, LinkDirection::kDown, "a")};  // 11 s away: outside window
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, DirectionMustAgree) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(100, LinkDirection::kUp, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, MessageConsumedOnce) {
  // Two IS-IS transitions 5 s apart but only one syslog message: it can
  // match only one of them.
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown), isis_tr(105, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(102, LinkDirection::kDown, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_one, 1u);
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, SameReporterCountsOnce) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kUp)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(99, LinkDirection::kUp, "a"), sys_tr(101, LinkDirection::kUp, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.up_one, 1u);
  EXPECT_EQ(c.up_both, 0u);
}

TEST(MatchTransitions, FlapAttribution) {
  std::map<LinkId, IntervalSet> flaps;
  flaps[kLink].add(TimeRange{at(90), at(110)});
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown),  // in flap, unmatched
      isis_tr(500, LinkDirection::kDown),  // outside flap, unmatched
  };
  const TransitionMatchCounts c =
      match_transitions(isis, {}, flaps, MatchOptions{});
  EXPECT_EQ(c.down_none, 2u);
  EXPECT_EQ(c.down_none_in_flap, 1u);
}

TEST(MatchTransitions, PhysicalMessagesIgnored) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(100, LinkDirection::kDown, "a",
             syslog::MessageClass::kPhysicalMedia)};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchReachability, PerClassPercentages) {
  std::vector<isis::IsisTransition> is_reach{
      isis_tr(100, LinkDirection::kDown)};
  std::vector<isis::IsisTransition> ip_reach{
      isis_tr(500, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(101, LinkDirection::kDown, "a"),  // matches IS only
      sys_tr(501, LinkDirection::kDown, "a",
             syslog::MessageClass::kPhysicalMedia),  // matches IP only
  };
  const ReachabilityMatchTable t =
      match_reachability(syslog, is_reach, ip_reach, MatchOptions{});
  EXPECT_DOUBLE_EQ(t.isis_down_vs_is, 100.0);
  EXPECT_DOUBLE_EQ(t.isis_down_vs_ip, 0.0);
  EXPECT_DOUBLE_EQ(t.media_down_vs_is, 0.0);
  EXPECT_DOUBLE_EQ(t.media_down_vs_ip, 100.0);
  EXPECT_EQ(t.isis_down_messages, 1u);
  EXPECT_EQ(t.media_down_messages, 1u);
}

TEST(MatchFailures, ExactAndWindowedMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis),
                                  failure(1000, 1100, Source::kIsis)};
  const std::vector<Failure> syslog{failure(105, 195, Source::kSyslog),
                                    failure(5000, 5100, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.isis_only.size(), 1u);
  EXPECT_EQ(r.syslog_only.size(), 1u);
  EXPECT_EQ(r.isis_count, 2u);
  EXPECT_EQ(r.syslog_count, 2u);
}

TEST(MatchFailures, EndMustAlsoMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis)};
  const std::vector<Failure> syslog{failure(100, 300, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.syslog_partial, 1u);  // overlaps but does not match
}

TEST(MatchFailures, DowntimeAccounting) {
  const std::vector<Failure> isis{failure(0, 100, Source::kIsis)};
  const std::vector<Failure> syslog{failure(50, 150, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.isis_downtime, Duration::seconds(100));
  EXPECT_EQ(r.syslog_downtime, Duration::seconds(100));
  EXPECT_EQ(r.overlap_downtime, Duration::seconds(50));
  // The unmatched syslog failure's false downtime = part outside IS-IS.
  EXPECT_EQ(r.syslog_false_downtime, Duration::seconds(50));
}

TEST(MatchFailures, DifferentLinksNeverMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis, LinkId{0})};
  const std::vector<Failure> syslog{
      failure(100, 200, Source::kSyslog, LinkId{1})};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 0u);
}

TEST(MatchFailures, GreedyOneToOne) {
  // Two identical syslog failures, one IS-IS failure: only one match.
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis)};
  const std::vector<Failure> syslog{failure(100, 200, Source::kSyslog),
                                    failure(101, 201, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.syslog_only.size(), 1u);
}

TEST(MatchFailures, SkipsUsedCandidatesInsideWindow) {
  // Three IS-IS failures start inside one window. Each syslog failure takes
  // the earliest unused candidate whose ends also agree, so the second skips
  // the one the first took and the third skips one whose end is too far.
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis),
                                  failure(102, 230, Source::kIsis),
                                  failure(104, 202, Source::kIsis)};
  const std::vector<Failure> syslog{failure(101, 201, Source::kSyslog),
                                    failure(103, 203, Source::kSyslog),
                                    failure(105, 205, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  const std::vector<std::pair<std::size_t, std::size_t>> want{{0, 0}, {2, 1}};
  EXPECT_EQ(r.pairs, want);
  EXPECT_EQ(r.isis_only, std::vector<std::size_t>{1});
  EXPECT_EQ(r.syslog_only, std::vector<std::size_t>{2});
}

TEST(MatchFailures, WindowBoundsAreInclusive) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis)};
  const std::vector<Failure> syslog{failure(90, 210, Source::kSyslog)};
  EXPECT_EQ(match_failures(isis, syslog, MatchOptions{}).matched, 1u);
}

TEST(MatchFailuresDeathTest, RejectsNonChronologicalLink) {
  const std::vector<Failure> isis{failure(500, 600, Source::kIsis),
                                  failure(100, 200, Source::kIsis)};
  EXPECT_DEATH(match_failures(isis, {}, MatchOptions{}), "chronological");
}

// ---- Differential: match_failures against a full-scan oracle ---------------

Failure failure_ms(std::int64_t b, std::int64_t e, Source src, LinkId link) {
  Failure f;
  f.link = link;
  f.span = TimeRange{TimePoint::from_unix_millis(b),
                     TimePoint::from_unix_millis(e)};
  f.source = src;
  return f;
}

/// Measure of `set` inside `r`, summed over every range of the set.
Duration linear_measure(const IntervalSet& set, TimeRange r) {
  Duration sum;
  for (const TimeRange& x : set.ranges()) {
    const TimePoint lo = std::max(x.begin, r.begin);
    const TimePoint hi = std::min(x.end, r.end);
    if (lo < hi) sum += hi - lo;
  }
  return sum;
}

/// match_failures' greedy rule with no index and no early exit: each syslog
/// failure, in input order, takes the first unused IS-IS failure of its link
/// whose start and end both agree within the window; downtime figures sum
/// over every range of the per-link downtime sets.
FailureMatchResult full_scan_match(const std::vector<Failure>& isis,
                                   const std::vector<Failure>& syslog,
                                   Duration window) {
  const auto agree = [window](Duration d) {
    return (d.is_negative() ? -d : d) <= window;
  };
  FailureMatchResult out;
  out.isis_count = isis.size();
  out.syslog_count = syslog.size();
  std::vector<bool> used(isis.size(), false);
  std::vector<bool> matched(syslog.size(), false);
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    for (std::size_t i = 0; i < isis.size(); ++i) {
      if (used[i] || isis[i].link != syslog[s].link) continue;
      if (agree(isis[i].span.begin - syslog[s].span.begin) &&
          agree(isis[i].span.end - syslog[s].span.end)) {
        used[i] = true;
        matched[s] = true;
        out.pairs.emplace_back(i, s);
        ++out.matched;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < isis.size(); ++i) {
    if (!used[i]) out.isis_only.push_back(i);
  }
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    if (!matched[s]) out.syslog_only.push_back(s);
  }

  const LinkDowntime isis_down(isis);
  const LinkDowntime syslog_down(syslog);
  for (std::size_t slot = 0; slot < isis_down.slots().size(); ++slot) {
    const IntervalSet& set = isis_down.at(slot);
    for (const TimeRange& x : set.ranges()) out.isis_downtime += x.duration();
    const IntervalSet* other =
        syslog_down.find(isis_down.slots().link(slot));
    if (other == nullptr) continue;
    for (const TimeRange& x : set.ranges()) {
      out.overlap_downtime += linear_measure(*other, x);
    }
  }
  for (std::size_t slot = 0; slot < syslog_down.slots().size(); ++slot) {
    for (const TimeRange& x : syslog_down.at(slot).ranges()) {
      out.syslog_downtime += x.duration();
    }
  }
  for (std::size_t s : out.syslog_only) {
    const Failure& sf = syslog[s];
    const IntervalSet* down = isis_down.find(sf.link);
    const Duration covered =
        down == nullptr ? Duration{} : linear_measure(*down, sf.span);
    if (covered > Duration{}) ++out.syslog_partial;
    out.syslog_false_downtime += sf.span.duration() - covered;
  }
  return out;
}

struct FailureLists {
  std::vector<Failure> isis, syslog;
};

/// Dense links: IS-IS failure starts advance by 0-6 s, so several start
/// inside one 10 s window. Syslog failures shadow them with up to ±12 s of
/// jitter on each end (exactly ±10 s one time in ten); some are reported
/// twice, so the later copy has to skip the candidate the first one used,
/// and some are strays. Both lists come sorted by (begin, link), the order
/// reconstruct emits.
FailureLists dense_failures(std::uint64_t seed, int links, int per_link) {
  Rng rng(seed);
  const auto jitter = [&rng]() -> std::int64_t {
    if (rng.bernoulli(0.1)) return rng.bernoulli(0.5) ? 10'000 : -10'000;
    return rng.uniform_int(-12'000, 12'000);
  };
  FailureLists out;
  for (int l = 0; l < links; ++l) {
    const LinkId link{static_cast<std::uint32_t>(l)};
    std::int64_t t = 1'000'000;
    for (int k = 0; k < per_link; ++k) {
      t += rng.uniform_int(0, 6'000);
      const std::int64_t end = t + rng.uniform_int(1, 20'000);
      out.isis.push_back(failure_ms(t, end, Source::kIsis, link));
      const int reports = rng.bernoulli(0.15) ? 0 : rng.bernoulli(0.2) ? 2 : 1;
      for (int c = 0; c < reports; ++c) {
        const std::int64_t b = t + jitter();
        const std::int64_t e = std::max(b + 1, end + jitter());
        out.syslog.push_back(failure_ms(b, e, Source::kSyslog, link));
      }
      if (rng.bernoulli(0.1)) {
        const std::int64_t b = t + rng.uniform_int(-30'000, 30'000);
        out.syslog.push_back(failure_ms(b, b + rng.uniform_int(1, 60'000),
                                        Source::kSyslog, link));
      }
    }
  }
  const auto by_begin = [](const Failure& a, const Failure& b) {
    if (a.span.begin != b.span.begin) return a.span.begin < b.span.begin;
    return a.link < b.link;
  };
  std::stable_sort(out.isis.begin(), out.isis.end(), by_begin);
  std::stable_sort(out.syslog.begin(), out.syslog.end(), by_begin);
  return out;
}

void expect_same_match(const FailureMatchResult& got,
                       const FailureMatchResult& want) {
  EXPECT_EQ(got.isis_count, want.isis_count);
  EXPECT_EQ(got.syslog_count, want.syslog_count);
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.isis_only, want.isis_only);
  EXPECT_EQ(got.syslog_only, want.syslog_only);
  EXPECT_EQ(got.syslog_partial, want.syslog_partial);
  EXPECT_EQ(got.isis_downtime, want.isis_downtime);
  EXPECT_EQ(got.syslog_downtime, want.syslog_downtime);
  EXPECT_EQ(got.overlap_downtime, want.overlap_downtime);
  EXPECT_EQ(got.syslog_false_downtime, want.syslog_false_downtime);
}

class MatchFailuresDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchFailuresDifferential, DenseLinksAgreeWithFullScan) {
  const FailureLists in = dense_failures(GetParam(), 3, 2000);
  const FailureMatchResult got =
      match_failures(in.isis, in.syslog, MatchOptions{});
  // Guard against a generator that stops exercising the interesting cases.
  ASSERT_GT(got.matched, 1000u);
  ASSERT_GT(got.syslog_only.size(), 500u);
  ASSERT_GT(got.syslog_partial, 0u);
  expect_same_match(got, full_scan_match(in.isis, in.syslog,
                                         MatchOptions{}.window));
}

TEST_P(MatchFailuresDifferential, OtherWindowsAgreeWithFullScan) {
  const FailureLists in = dense_failures(GetParam() + 100, 2, 500);
  for (const Duration w : {Duration{}, Duration::seconds(1),
                           Duration::seconds(60)}) {
    SCOPED_TRACE(w.total_millis());
    MatchOptions options;
    options.window = w;
    expect_same_match(match_failures(in.isis, in.syslog, options),
                      full_scan_match(in.isis, in.syslog, w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchFailuresDifferential,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace netfail::analysis
