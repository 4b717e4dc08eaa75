#include "src/isis/extract.hpp"

#include <gtest/gtest.h>

#include "src/isis/lsp_builder.hpp"

namespace netfail::isis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }

/// Two-router fixture: hosts "aa" and "bb" joined by one /31 link, plus a
/// multi-link pair "bb"--"cc" with two members.
class ExtractTest : public ::testing::Test {
 protected:
  ExtractTest()
      : id_a_(OsiSystemId::from_index(1)),
        id_b_(OsiSystemId::from_index(2)),
        id_c_(OsiSystemId::from_index(3)),
        oa_(id_a_, "aa"),
        ob_(id_b_, "bb"),
        oc_(id_c_, "cc") {
    const TimeRange period{at(0), at(100000)};
    ab_ = census_.add_link(
        CensusEndpoint{"aa", "Te0/0", Ipv4Address(10, 0, 0, 0)},
        CensusEndpoint{"bb", "Te0/0", Ipv4Address(10, 0, 0, 1)}, subnet_ab_,
        period, RouterClass::kCore);
    bc1_ = census_.add_link(
        CensusEndpoint{"bb", "Te0/1", Ipv4Address(10, 0, 0, 2)},
        CensusEndpoint{"cc", "Te0/0", Ipv4Address(10, 0, 0, 3)}, subnet_bc1_,
        period, RouterClass::kCore);
    bc2_ = census_.add_link(
        CensusEndpoint{"bb", "Te0/2", Ipv4Address(10, 0, 0, 4)},
        CensusEndpoint{"cc", "Te0/1", Ipv4Address(10, 0, 0, 5)}, subnet_bc2_,
        period, RouterClass::kCore);
    census_.set_hostname(id_a_, "aa");
    census_.set_hostname(id_b_, "bb");
    census_.set_hostname(id_c_, "cc");
    census_.finalize();

    // Initial state: everything up.
    oa_.adjacency_up(id_b_, 10);
    oa_.prefix_up(subnet_ab_, 10);
    ob_.adjacency_up(id_a_, 10);
    ob_.prefix_up(subnet_ab_, 10);
    ob_.adjacency_up(id_c_, 10);
    ob_.adjacency_up(id_c_, 10);
    ob_.prefix_up(subnet_bc1_, 10);
    ob_.prefix_up(subnet_bc2_, 10);
    oc_.adjacency_up(id_b_, 10);
    oc_.adjacency_up(id_b_, 10);
    oc_.prefix_up(subnet_bc1_, 10);
    oc_.prefix_up(subnet_bc2_, 10);
  }

  void flood(LspOriginator& o, std::int64_t t) {
    records_.push_back(
        LspRecord{at(t), ByteSlice::copy_of(o.build().encode())});
  }
  void flood_all(std::int64_t t) {
    flood(oa_, t);
    flood(ob_, t + 1);
    flood(oc_, t + 2);
  }

  IsisExtraction extract() { return extract_transitions(records_, census_); }

  OsiSystemId id_a_, id_b_, id_c_;
  LspOriginator oa_, ob_, oc_;
  LinkCensus census_;
  LinkId ab_, bc1_, bc2_;
  Ipv4Prefix subnet_ab_{Ipv4Address(10, 0, 0, 0), 31};
  Ipv4Prefix subnet_bc1_{Ipv4Address(10, 0, 0, 2), 31};
  Ipv4Prefix subnet_bc2_{Ipv4Address(10, 0, 0, 4), 31};
  std::vector<LspRecord> records_;
};

TEST_F(ExtractTest, BaselineProducesNoTransitions) {
  flood_all(0);
  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.stats.lsps_processed, 3u);
  EXPECT_TRUE(ex.is_reach.empty());
  EXPECT_TRUE(ex.ip_reach.empty());
}

TEST_F(ExtractTest, SingleLinkFailureAndRecovery) {
  flood_all(0);
  // Both ends withdraw the adjacency and prefix.
  oa_.adjacency_down(id_b_, 10);
  oa_.prefix_down(subnet_ab_);
  flood(oa_, 10);
  ob_.adjacency_down(id_a_, 10);
  ob_.prefix_down(subnet_ab_);
  flood(ob_, 11);
  // Recovery.
  oa_.adjacency_up(id_b_, 10);
  oa_.prefix_up(subnet_ab_, 10);
  flood(oa_, 40);
  ob_.adjacency_up(id_a_, 10);
  ob_.prefix_up(subnet_ab_, 10);
  flood(ob_, 41);

  const IsisExtraction ex = extract();
  // IS reach: DOWN at the first withdrawal, UP at the second re-advert.
  ASSERT_EQ(ex.is_reach.size(), 2u);
  EXPECT_EQ(ex.is_reach[0].dir, LinkDirection::kDown);
  EXPECT_EQ(ex.is_reach[0].time, at(10));
  EXPECT_EQ(ex.is_reach[0].link, ab_);
  EXPECT_FALSE(ex.is_reach[0].multilink);
  EXPECT_EQ(ex.is_reach[1].dir, LinkDirection::kUp);
  EXPECT_EQ(ex.is_reach[1].time, at(41));
  // IP reach: DOWN when the last advertiser withdraws, UP at the first.
  ASSERT_EQ(ex.ip_reach.size(), 2u);
  EXPECT_EQ(ex.ip_reach[0].dir, LinkDirection::kDown);
  EXPECT_EQ(ex.ip_reach[0].time, at(11));
  EXPECT_EQ(ex.ip_reach[0].link, ab_);
  EXPECT_EQ(ex.ip_reach[1].dir, LinkDirection::kUp);
  EXPECT_EQ(ex.ip_reach[1].time, at(40));
}

TEST_F(ExtractTest, ProtocolFailureLeavesIpReachAlone) {
  flood_all(0);
  oa_.adjacency_down(id_b_, 10);
  flood(oa_, 10);
  ob_.adjacency_down(id_a_, 10);
  flood(ob_, 11);
  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.is_reach.size(), 1u);
  EXPECT_TRUE(ex.ip_reach.empty());
}

TEST_F(ExtractTest, MultilinkMemberChangeIsAmbiguous) {
  flood_all(0);
  // One member of the bb--cc pair drops on both ends.
  ob_.adjacency_down(id_c_, 10);
  flood(ob_, 10);
  oc_.adjacency_down(id_b_, 10);
  flood(oc_, 11);

  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 1u);
  EXPECT_TRUE(ex.is_reach[0].multilink);
  EXPECT_FALSE(ex.is_reach[0].link.valid());
  EXPECT_EQ(ex.is_reach[0].pair_count_after, 1);
  EXPECT_EQ(ex.stats.multilink_transitions, 1u);
}

TEST_F(ExtractTest, MultilinkFullOutageReachesZero) {
  flood_all(0);
  ob_.adjacency_down(id_c_, 10);
  ob_.adjacency_down(id_c_, 10);
  flood(ob_, 10);
  oc_.adjacency_down(id_b_, 10);
  oc_.adjacency_down(id_b_, 10);
  flood(oc_, 11);
  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 2u);
  EXPECT_EQ(ex.is_reach[1].pair_count_after, 0);
  // IP prefixes of both members still advertised? No — not withdrawn here,
  // so no IP transitions (protocol-level outage).
  EXPECT_TRUE(ex.ip_reach.empty());
}

TEST_F(ExtractTest, StaleSequenceIgnored) {
  flood_all(0);
  oa_.adjacency_down(id_b_, 10);
  const Lsp lsp = [&] {
    Lsp l;
    l.source = id_a_;
    l.sequence = 1;  // same as the baseline LSP: stale
    l.hostname = "aa";
    return l;
  }();
  records_.push_back(LspRecord{at(10), ByteSlice::copy_of(lsp.encode())});
  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.stats.stale_lsps, 1u);
  EXPECT_TRUE(ex.is_reach.empty());
}

TEST_F(ExtractTest, RenamedSourceResolvesItsNeighborsUnderTheNewName) {
  flood_all(0);
  // A failure and recovery of aa--bb: aa's differ resolves (aa, bb) twice.
  oa_.adjacency_down(id_b_, 10);
  flood(oa_, 10);
  ob_.adjacency_down(id_a_, 10);
  flood(ob_, 11);
  oa_.adjacency_up(id_b_, 10);
  flood(oa_, 40);
  ob_.adjacency_up(id_a_, 10);
  flood(ob_, 41);
  // aa renames itself and withdraws bb in the same LSP. The census knows no
  // "aa-renamed", so the withdrawal names an unknown pair: it must not be
  // taken for (aa, bb) from before the rename and take the link down.
  Lsp renamed;
  renamed.source = id_a_;
  renamed.sequence = 100;
  renamed.hostname = "aa-renamed";
  records_.push_back(LspRecord{at(60), ByteSlice::copy_of(renamed.encode())});

  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 2u);
  EXPECT_EQ(ex.is_reach[0].time, at(10));
  EXPECT_EQ(ex.is_reach[1].time, at(41));
}

TEST_F(ExtractTest, CorruptLspCounted) {
  flood_all(0);
  auto bytes = oa_.build().encode();
  bytes[20] ^= 0x40;
  records_.push_back(LspRecord{at(5), ByteSlice::copy_of(bytes)});
  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.stats.checksum_failures, 1u);
  EXPECT_TRUE(ex.is_reach.empty());
}

TEST_F(ExtractTest, AdjacencyFormedAfterStart) {
  // Link ab is down at listener start: neither advertises it.
  oa_.adjacency_down(id_b_, 10);
  ob_.adjacency_down(id_a_, 10);
  flood_all(0);

  oa_.adjacency_up(id_b_, 10);
  flood(oa_, 50);  // one-way: min still 0, no transition
  ob_.adjacency_up(id_a_, 10);
  flood(ob_, 60);  // both ways: UP

  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 1u);
  EXPECT_EQ(ex.is_reach[0].dir, LinkDirection::kUp);
  EXPECT_EQ(ex.is_reach[0].time, at(60));
}

TEST_F(ExtractTest, UnknownPrefixCounted) {
  flood_all(0);
  oa_.prefix_up(Ipv4Prefix{Ipv4Address(192, 0, 2, 0), 31}, 10);
  flood(oa_, 10);
  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.stats.unknown_prefixes, 1u);
  EXPECT_TRUE(ex.ip_reach.empty());
}

TEST_F(ExtractTest, FlapSequence) {
  flood_all(0);
  for (int k = 0; k < 3; ++k) {
    const std::int64_t base = 100 + 60 * k;
    oa_.adjacency_down(id_b_, 10);
    flood(oa_, base);
    ob_.adjacency_down(id_a_, 10);
    flood(ob_, base + 1);
    oa_.adjacency_up(id_b_, 10);
    flood(oa_, base + 20);
    ob_.adjacency_up(id_a_, 10);
    flood(ob_, base + 21);
  }
  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ex.is_reach[i].dir,
              i % 2 == 0 ? LinkDirection::kDown : LinkDirection::kUp);
  }
}


TEST_F(ExtractTest, PurgeWithdrawsEverything) {
  flood_all(0);
  // Router aa purges its LSP (zero remaining lifetime): its adjacency to bb
  // disappears -> pair minimum drops -> DOWN; its /31 advert goes too, but
  // bb still advertises the subnet so no IP transition.
  Lsp purge;
  purge.source = id_a_;
  purge.sequence = 10;
  purge.remaining_lifetime = 0;
  purge.hostname = "aa";
  records_.push_back(LspRecord{at(50), ByteSlice::copy_of(purge.encode())});

  const IsisExtraction ex = extract();
  EXPECT_EQ(ex.stats.purges, 1u);
  ASSERT_EQ(ex.is_reach.size(), 1u);
  EXPECT_EQ(ex.is_reach[0].dir, LinkDirection::kDown);
  EXPECT_EQ(ex.is_reach[0].link, ab_);
  EXPECT_TRUE(ex.ip_reach.empty());
}

TEST_F(ExtractTest, ReadvertisementAfterPurgeRestoresState) {
  flood_all(0);
  Lsp purge;
  purge.source = id_a_;
  purge.sequence = 10;
  purge.remaining_lifetime = 0;
  purge.hostname = "aa";
  records_.push_back(LspRecord{at(50), ByteSlice::copy_of(purge.encode())});
  // aa comes back with a fresh full LSP at a higher sequence.
  for (int i = 0; i < 10; ++i) oa_.build();  // advance past sequence 10
  flood(oa_, 90);

  const IsisExtraction ex = extract();
  ASSERT_EQ(ex.is_reach.size(), 2u);
  EXPECT_EQ(ex.is_reach[1].dir, LinkDirection::kUp);
  EXPECT_EQ(ex.is_reach[1].time, at(90));
}

}  // namespace
}  // namespace netfail::isis
