// Property tests: the IS-reach extractor against randomized true link
// histories driven through real LspOriginators — transitions must
// alternate per link and mirror the injected history exactly when every
// LSP is delivered.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.hpp"
#include "src/isis/extract.hpp"
#include "src/isis/lsp_builder.hpp"

namespace netfail::isis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

class ExtractProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractProperty, TransitionsAlternateAndMatchHistory) {
  Rng rng(GetParam());

  // Star topology: hub "h" with `n` spokes, each with one link.
  const int n = 4;
  LinkCensus census;
  const TimeRange period{at(0), at(1'000'000)};
  std::vector<LinkId> links;
  LspOriginator hub(OsiSystemId::from_index(0), "hub");
  census.set_hostname(OsiSystemId::from_index(0), "hub");
  std::vector<LspOriginator> spokes;
  for (int i = 1; i <= n; ++i) {
    const std::string host = "spoke" + std::to_string(i);
    census.set_hostname(OsiSystemId::from_index(static_cast<std::uint32_t>(i)),
                        host);
    spokes.emplace_back(OsiSystemId::from_index(static_cast<std::uint32_t>(i)),
                        host);
    links.push_back(census.add_link(
        CensusEndpoint{"hub", "if" + std::to_string(i),
                       Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(2 * i)}},
        CensusEndpoint{host, "if0",
                       Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(2 * i + 1)}},
        Ipv4Prefix{Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(2 * i)}, 31},
        period, RouterClass::kCpe));
  }
  census.finalize();

  // All up initially.
  for (int i = 0; i < n; ++i) {
    hub.adjacency_up(OsiSystemId::from_index(static_cast<std::uint32_t>(i + 1)), 10);
    spokes[static_cast<std::size_t>(i)].adjacency_up(OsiSystemId::from_index(0), 10);
  }

  std::vector<LspRecord> records;
  std::int64_t t = 0;
  auto flood = [&](LspOriginator& o) {
    records.push_back(LspRecord{at(t), ByteSlice::copy_of(o.build().encode())});
    ++t;
  };
  flood(hub);
  for (auto& s : spokes) flood(s);

  // Random alternating histories per link; every change floods both ends.
  std::map<int, std::vector<std::pair<std::int64_t, LinkDirection>>> history;
  std::map<int, LinkDirection> state;
  for (int i = 0; i < n; ++i) state[i] = LinkDirection::kUp;
  for (int step = 0; step < 60; ++step) {
    t += rng.uniform_int(5, 200);
    const int i = static_cast<int>(rng.uniform_int(0, n - 1));
    const OsiSystemId spoke_id =
        OsiSystemId::from_index(static_cast<std::uint32_t>(i + 1));
    if (state[i] == LinkDirection::kUp) {
      hub.adjacency_down(spoke_id, 10);
      spokes[static_cast<std::size_t>(i)].adjacency_down(
          OsiSystemId::from_index(0), 10);
      state[i] = LinkDirection::kDown;
    } else {
      hub.adjacency_up(spoke_id, 10);
      spokes[static_cast<std::size_t>(i)].adjacency_up(
          OsiSystemId::from_index(0), 10);
      state[i] = LinkDirection::kUp;
    }
    history[i].emplace_back(t, state[i]);
    flood(hub);
    flood(spokes[static_cast<std::size_t>(i)]);
  }

  const IsisExtraction ex = extract_transitions(records, census);
  EXPECT_EQ(ex.stats.checksum_failures, 0u);
  EXPECT_EQ(ex.stats.parse_failures, 0u);

  // Per link: alternation, correct count, correct directions in order.
  std::map<LinkId, std::vector<LinkDirection>> seen;
  for (const IsisTransition& tr : ex.is_reach) {
    ASSERT_TRUE(tr.link.valid());
    EXPECT_FALSE(tr.multilink);
    seen[tr.link].push_back(tr.dir);
  }
  for (int i = 0; i < n; ++i) {
    const auto& truth = history[i];
    const auto& got = seen[links[static_cast<std::size_t>(i)]];
    ASSERT_EQ(got.size(), truth.size()) << "link " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], truth[k].second) << "link " << i << " step " << k;
      if (k > 0) {
        EXPECT_NE(got[k], got[k - 1]) << "alternation violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace netfail::isis
