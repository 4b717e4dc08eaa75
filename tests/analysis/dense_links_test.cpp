// The dense per-link tables (src/analysis/dense_links.hpp) against what
// they replaced, on seeded inputs built to make order matter: equal
// timestamps, links the census does not have, the invalid link, multi-link
// transitions, and syslog messages out of time order within a link.
//   - render_comparison, which builds the IS-reach index and the IS-IS
//     downtime once and hands them to Tables 2, 4 and 6, equals rendering
//     each public compute_table*() (each building its own) in turn;
//   - reconstruct's counting sort by link, then a time sort of only the
//     unsorted ranges, feeds the walkers what the stable sort by (link,
//     time) it replaced fed them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/analysis/dense_links.hpp"
#include "src/analysis/link_walker.hpp"
#include "src/analysis/reconstruct.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/rng.hpp"
#include "src/common/strfmt.hpp"

namespace netfail::analysis {
namespace {

/// A link drawn from the census's, a few past it, and the invalid id.
LinkId random_link(Rng& rng, std::size_t census_links) {
  if (rng.bernoulli(0.05)) return LinkId::invalid();
  return LinkId(static_cast<LinkId::underlying_type>(
      rng.uniform_int(0, static_cast<std::int64_t>(census_links) + 2)));
}

/// A time on a 5-second grid across the period, so equal times are common.
TimePoint random_time(Rng& rng, TimeRange period) {
  const std::int64_t steps = (period.end - period.begin).total_millis() / 5000;
  return period.begin + Duration::seconds(5 * rng.uniform_int(0, steps - 1));
}

LinkDirection random_dir(Rng& rng) {
  return rng.bernoulli(0.5) ? LinkDirection::kDown : LinkDirection::kUp;
}

/// Transitions concentrated on a few links each, as failures are.
std::vector<isis::IsisTransition> random_isis(Rng& rng, std::size_t links,
                                              TimeRange period, bool is_reach) {
  std::vector<isis::IsisTransition> out(600);
  for (isis::IsisTransition& tr : out) {
    tr.time = random_time(rng, period);
    tr.dir = random_dir(rng);
    tr.field = is_reach ? isis::ReachabilityField::kIsReach
                        : isis::ReachabilityField::kIpReach;
    tr.link = random_link(rng, std::min<std::size_t>(links, 12));
    if (is_reach && rng.bernoulli(0.1)) {
      tr.multilink = true;
      // The extractor leaves a multi-link transition without a link; a
      // handful keep one, to hold both paths to the same filter.
      if (rng.bernoulli(0.7)) tr.link = LinkId::invalid();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const isis::IsisTransition& a, const isis::IsisTransition& b) {
              return a.time < b.time;
            });
  return out;
}

std::vector<syslog::SyslogTransition> random_syslog(Rng& rng,
                                                    std::size_t links,
                                                    TimeRange period) {
  // Arrival order is not time order: times are drawn independently.
  std::vector<syslog::SyslogTransition> out(800);
  for (syslog::SyslogTransition& tr : out) {
    tr.time = random_time(rng, period);
    tr.dir = random_dir(rng);
    tr.cls = rng.bernoulli(0.7) ? syslog::MessageClass::kIsisAdjacency
                                : syslog::MessageClass::kPhysicalMedia;
    tr.link = random_link(rng, std::min<std::size_t>(links, 12));
    tr.reporter = Symbol(rng.bernoulli(0.5) ? "dense-a" : "dense-b");
  }
  return out;
}

/// render_comparison's layout, from the public table functions.
std::string tables_in_turn(const AnalysisResult& r, const LinkCensus& census) {
  const Table5Data t5 = compute_table5(r, census);
  return render_table2(compute_table2(r)) + "\n" +
         render_table3(compute_table3(r)) + "\n" +
         render_table4(compute_table4(r)) + "\n" +
         strformat("Long-failure verification removed %zu failures (%.0f h "
                   "spurious)\n\n",
                   r.syslog_long_report.long_failures_removed,
                   r.syslog_long_report.spurious_hours_removed.hours_f()) +
         render_table5(t5) + "\n" + render_ks(compute_ks(t5)) + "\n" +
         render_table6(compute_table6(r)) + "\n";
}

TEST(DenseComparison, SharedIndexReportEqualsThePublicTables) {
  PipelineOptions options;
  options.scenario = sim::test_scenario(5);
  const auto held = ScenarioCache::global().pipeline(options);
  const PipelineResult& base = *held;
  // The simulated capture itself, then seeded synthetic streams over its
  // census and period.
  EXPECT_EQ(render_comparison(base, base.census),
            tables_in_turn(base, base.census));

  const TimeRange period = base.options_period;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    AnalysisResult r = base;
    r.isis.is_reach = random_isis(rng, base.census.size(), period, true);
    r.isis.ip_reach = random_isis(rng, base.census.size(), period, false);
    r.syslog.transitions = random_syslog(rng, base.census.size(), period);
    ReconstructOptions recon;
    recon.period = period;
    r.isis_recon = reconstruct_from_isis(r.isis.is_reach, recon);
    r.syslog_recon = reconstruct_from_syslog(r.syslog.transitions, recon);
    r.isis_flaps = detect_flaps(r.isis_recon.failures);
    r.syslog_flaps = detect_flaps(r.syslog_recon.failures);
    ASSERT_FALSE(r.isis_recon.failures.empty());
    ASSERT_FALSE(r.syslog_recon.ambiguous.empty());
    EXPECT_EQ(render_comparison(r, base.census),
              tables_in_turn(r, base.census));
  }
}

/// reconstruct() as it was: a stable sort by (link, time), then one walker
/// per link range.
Reconstruction stable_sorted_reconstruct(std::vector<RawTransition> in,
                                         const ReconstructOptions& options) {
  std::stable_sort(in.begin(), in.end(),
                   [](const RawTransition& a, const RawTransition& b) {
                     if (a.link != b.link) return a.link < b.link;
                     return a.time < b.time;
                   });
  Reconstruction out;
  for (std::size_t i = 0; i < in.size();) {
    const LinkId link = in[i].link;
    LinkWalker::State state;
    LinkWalker walker(link, options, out, out.failures, out.ambiguous, state);
    for (; i < in.size() && in[i].link == link; ++i) {
      walker.feed(in[i].time, in[i].dir);
    }
    walker.finish();
  }
  std::sort(out.failures.begin(), out.failures.end(),
            [](const Failure& a, const Failure& b) {
              if (a.span.begin != b.span.begin) {
                return a.span.begin < b.span.begin;
              }
              return a.link < b.link;
            });
  return out;
}

void expect_same(const Reconstruction& got, const Reconstruction& want) {
  ASSERT_EQ(got.failures.size(), want.failures.size());
  for (std::size_t i = 0; i < got.failures.size(); ++i) {
    EXPECT_EQ(got.failures[i].link, want.failures[i].link) << i;
    EXPECT_EQ(got.failures[i].span.begin, want.failures[i].span.begin) << i;
    EXPECT_EQ(got.failures[i].span.end, want.failures[i].span.end) << i;
  }
  ASSERT_EQ(got.ambiguous.size(), want.ambiguous.size());
  for (std::size_t i = 0; i < got.ambiguous.size(); ++i) {
    const AmbiguousSegment& g = got.ambiguous[i];
    const AmbiguousSegment& w = want.ambiguous[i];
    EXPECT_EQ(g.link, w.link) << i;
    EXPECT_EQ(g.repeated_dir, w.repeated_dir) << i;
    EXPECT_EQ(g.first_message, w.first_message) << i;
    EXPECT_EQ(g.second_message, w.second_message) << i;
  }
  EXPECT_EQ(got.double_downs, want.double_downs);
  EXPECT_EQ(got.double_ups, want.double_ups);
  EXPECT_EQ(got.merged_duplicates, want.merged_duplicates);
  EXPECT_EQ(got.unterminated, want.unterminated);
}

TEST(DenseReconstruct, OrderEqualsTheStableSortByLinkAndTime) {
  const TimeRange period{TimePoint::from_civil(2011, 1, 1),
                         TimePoint::from_civil(2011, 1, 2)};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    // A stream in time order (most links need no sort), then the same
    // stream shuffled; times on a coarse grid, so ties are everywhere and
    // the stable order among them decides the walk.
    std::vector<RawTransition> in(
        static_cast<std::size_t>(rng.uniform_int(0, 400)));
    for (RawTransition& tr : in) {
      tr.link = random_link(rng, 6);
      tr.time = period.begin + Duration::seconds(rng.uniform_int(0, 40));
      tr.dir = random_dir(rng);
    }
    std::stable_sort(in.begin(), in.end(),
                     [](const RawTransition& a, const RawTransition& b) {
                       return a.time < b.time;
                     });
    std::vector<RawTransition> shuffled = in;
    rng.shuffle(shuffled);
    for (const AmbiguityPolicy policy :
         {AmbiguityPolicy::kDrop, AmbiguityPolicy::kAssumeDown,
          AmbiguityPolicy::kAssumeUp, AmbiguityPolicy::kHoldState}) {
      ReconstructOptions options;
      options.policy = policy;
      options.period = period;
      expect_same(reconstruct(in, options),
                  stable_sorted_reconstruct(in, options));
      expect_same(reconstruct(shuffled, options),
                  stable_sorted_reconstruct(shuffled, options));
      if (HasFailure()) return;
    }
  }
}

TEST(DenseLinks, SlotsWalkLinksInLinkIdOrderWithTheInvalidIdLast) {
  const std::vector<LinkId> links{LinkId(4), LinkId::invalid(), LinkId(0),
                                  LinkId(4), LinkId(2)};
  const LinkSlots slots = LinkSlots::covering(
      links.size(), [&](std::size_t i) { return links[i]; });
  ASSERT_EQ(slots.size(), 6u);  // ids 0..4 and the invalid id
  EXPECT_EQ(slots.of(LinkId(2)), 2u);
  EXPECT_EQ(slots.of(LinkId::invalid()), 5u);
  EXPECT_EQ(slots.of(LinkId(5)), slots.size());  // not covered
  EXPECT_EQ(slots.link(5), LinkId::invalid());
  EXPECT_EQ(slots.of(LinkId(5), LinkDirection::kUp), slots.directed_size());

  const Buckets<std::size_t> by_link(
      slots.size(), links.size(),
      [&](std::size_t i) { return slots.of(links[i]); },
      [](std::size_t i) { return i; });
  std::vector<std::size_t> order(by_link.all().begin(), by_link.all().end());
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 4, 0, 3, 1}));
  EXPECT_TRUE(by_link[1].empty());
  EXPECT_TRUE(by_link[slots.size()].empty());
}

}  // namespace
}  // namespace netfail::analysis
