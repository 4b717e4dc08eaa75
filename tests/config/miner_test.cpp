#include "src/config/miner.hpp"

#include <gtest/gtest.h>

#include "src/config/render.hpp"
#include "src/topology/generator.hpp"

namespace netfail {
namespace {

TEST(ParseConfig, IosMinimal) {
  const char* cfg =
      "hostname edu001-gw-1\n"
      "!\n"
      "interface GigabitEthernet0/0\n"
      " description Link to core\n"
      " ip address 137.164.0.1 255.255.255.254\n"
      " ip router isis cenic\n"
      "!\n"
      "router isis cenic\n"
      " net 49.0001.1371.6420.0007.00\n"
      "end\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "edu001-gw-1");
  EXPECT_TRUE(mined->has_system_id);
  EXPECT_EQ(mined->system_id.to_string(), "1371.6420.0007");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "GigabitEthernet0/0");
  EXPECT_EQ(mined->interfaces[0].address, Ipv4Address(137, 164, 0, 1));
}

TEST(ParseConfig, IosXrAddressSyntax) {
  const char* cfg =
      "hostname lax-core-1\n"
      "interface TenGigE0/0/0/1\n"
      " ipv4 address 137.164.0.2 255.255.255.254\n"
      "!\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "TenGigE0/0/0/1");
}

TEST(ParseConfig, SkipsLoopbackAndNon31) {
  const char* cfg =
      "hostname r1\n"
      "interface Loopback0\n"
      " ip address 10.0.0.1 255.255.255.255\n"
      "interface Gi0/0\n"
      " ip address 10.1.0.1 255.255.255.0\n"
      "interface Gi0/1\n"
      " ip address 10.2.0.0 255.255.255.254\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
}

TEST(ParseConfig, NoHostnameFails) {
  EXPECT_FALSE(parse_config("interface Gi0/0\n ip address 10.0.0.0 "
                            "255.255.255.254\n")
                   .ok());
}

TEST(ParseConfig, ToleratesGarbageLines) {
  const char* cfg =
      "hostname r1\n"
      "some unknown directive with words\n"
      "interface Gi0/0\n"
      " ip address not.an.ip null\n"
      " ip address 10.0.0.0 255.255.255.254\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->interfaces.size(), 1u);
}

TEST(ParseConfig, NestedXrInterfaceStanzasIgnored) {
  // The "interface" lines inside "router isis" must not open a new stanza.
  const char* cfg =
      "hostname r1\n"
      "interface Te0/0\n"
      " ipv4 address 10.0.0.0 255.255.255.254\n"
      "!\n"
      "router isis cenic\n"
      " interface Te0/0\n"
      "  address-family ipv4 unicast\n"
      "   metric 30\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->interfaces.size(), 1u);
}

TEST(ParseConfig, TabsSeparateTokens) {
  const char* cfg =
      "hostname\tr1\n"
      "interface\tGi0/1\n"
      " ip\taddress 10.2.0.0\t255.255.255.254\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
  EXPECT_EQ(mined->interfaces[0].address, Ipv4Address(10, 2, 0, 0));
}

TEST(ParseConfig, CrLfLineEndsAreNotPartOfAnyToken) {
  const char* cfg =
      "hostname r1\r\n"
      "interface Gi0/1\r\n"
      " ip address 10.2.0.0 255.255.255.254\r\n"
      "router isis cenic\r\n"
      " net 49.0001.1371.6420.0007.00\r\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
  EXPECT_TRUE(mined->has_system_id);
  EXPECT_EQ(mined->system_id.to_string(), "1371.6420.0007");
}

TEST(ParseConfig, TrailingBlanksAreTrimmed) {
  const char* cfg =
      "hostname r1   \n"
      "interface Gi0/1 \t \n"
      " ip address 10.2.0.0 255.255.255.254    \n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
}

TEST(ParseConfig, SecondaryAddressIsMinedLikeAPrimary) {
  // Tokens after the mask ("secondary") do not stop the line matching.
  const char* cfg =
      "hostname r1\n"
      "interface Gi0/1\n"
      " ip address 10.2.0.0 255.255.255.254 secondary\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].address, Ipv4Address(10, 2, 0, 0));
  EXPECT_EQ(mined->interfaces[0].prefix_length, 31);
}

TEST(ParseConfig, IndentedXrInterfaceOpensNoStanza) {
  // After "!" closes the top-level stanza, the indented "interface" under
  // "router isis" must not open one: the address below it belongs to no
  // interface and is not mined.
  const char* cfg =
      "hostname r1\n"
      "interface Te0/0/0/1\n"
      " ipv4 address 10.0.0.0 255.255.255.254\n"
      "!\n"
      "router isis cenic\n"
      " interface Te0/0/0/2\n"
      "  ipv4 address 10.0.0.2 255.255.255.254\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Te0/0/0/1");
}

TEST(ParseConfig, BareBangWithSurroundingBlanksEndsTheStanza) {
  const char* cfg =
      "hostname r1\n"
      "interface Gi0/1\n"
      "  ! \t\n"
      " ip address 10.2.0.0 255.255.255.254\n"
      "interface Gi0/2\n"
      " ! a comment, not a separator\n"
      " ip address 10.3.0.0 255.255.255.254\n";
  const auto mined = parse_config(cfg);
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/2");
}

TEST(ParseConfig, LastLineWithoutNewlineIsParsed) {
  const auto address_last = parse_config(
      "hostname r1\ninterface Gi0/1\n ip address 10.2.0.0 255.255.255.254");
  ASSERT_TRUE(address_last.ok());
  ASSERT_EQ(address_last->interfaces.size(), 1u);
  const auto hostname_last = parse_config("!\nhostname r9");
  ASSERT_TRUE(hostname_last.ok());
  EXPECT_EQ(hostname_last->hostname, "r9");
}

TEST(ParseConfig, NetNeedsFiveDottedFields) {
  const auto short_net = parse_config("hostname r1\n net 1371.6420.0007.00\n");
  ASSERT_TRUE(short_net.ok());
  EXPECT_FALSE(short_net->has_system_id);
  const auto long_net =
      parse_config("hostname r1\n net 39.840f.0001.1371.6420.0007.00\n");
  ASSERT_TRUE(long_net.ok());
  ASSERT_TRUE(long_net->has_system_id);
  EXPECT_EQ(long_net->system_id.to_string(), "1371.6420.0007");
}

TEST(ParseConfig, IndentedHostnameAndNetAreRead) {
  const auto mined = parse_config(
      "\t hostname r1\n"
      "router isis cenic\n"
      "   net 49.0001.1371.6420.0007.00\n");
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_TRUE(mined->has_system_id);
  EXPECT_EQ(mined->system_id.to_string(), "1371.6420.0007");
}

TEST(ParseConfig, VerticalTabAndFormFeedSeparateTokens) {
  // Both are blanks to std::isspace in the C locale, as to trim().
  const auto mined = parse_config(
      "\vhostname\fr1\v\n"
      "interface\fGi0/1\n"
      "\fip\vaddress\f10.2.0.0\v255.255.255.254\f\n");
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
  EXPECT_EQ(mined->interfaces[0].address, Ipv4Address(10, 2, 0, 0));
}

TEST(ParseConfig, BytesFromTheUpperHalfAreNotBlanks) {
  // 0xA0 (a no-break space in Latin-1) is not a blank in the C locale: a
  // line starting with it is no statement, and inside a token it is kept.
  const auto mined = parse_config(
      "\xa0hostname wrong\n"
      "hostname r\xc3\xa9\xa0x\n"
      "interface Gi0/1\xa0\n"
      " ip address 10.2.0.0 255.255.255.254\n");
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r\xc3\xa9\xa0x");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1\xa0");
}

TEST(ParseConfig, BangGluedToAStatementIsAComment) {
  // "!hostname x" names no host and, not being a bare "!", does not end
  // the stanza either.
  EXPECT_FALSE(parse_config("!hostname x\n").ok());
  const auto mined = parse_config(
      "hostname r1\n"
      "interface Gi0/1\n"
      "!hostname x\n"
      " ip address 10.2.0.0 255.255.255.254\n");
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->hostname, "r1");
  ASSERT_EQ(mined->interfaces.size(), 1u);
  EXPECT_EQ(mined->interfaces[0].name, "Gi0/1");
}

TEST(ParseConfig, BangFollowedByAVerticalTabIsBare) {
  const auto mined = parse_config(
      "hostname r1\n"
      "interface Gi0/1\n"
      "!\v\n"
      " ip address 10.2.0.0 255.255.255.254\n");
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(mined->interfaces.empty());
}

class MineArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = generate_topology(TopologyParams{}.scaled_down(6));
    period_ = TimeRange{TimePoint::from_civil(2010, 10, 20),
                        TimePoint::from_civil(2011, 1, 20)};
    archive_ = generate_archive(topo_, period_);
  }

  Topology topo_;
  TimeRange period_;
  ConfigArchive archive_;
};

TEST_F(MineArchiveTest, RecoversFullCensus) {
  MiningStats stats;
  const LinkCensus census = mine_archive(archive_, period_, {}, &stats);
  EXPECT_EQ(stats.files_failed, 0u);
  EXPECT_EQ(stats.unpaired_subnets, 0u);
  EXPECT_EQ(census.size(), topo_.link_count());
  EXPECT_EQ(census.count(RouterClass::kCore),
            topo_.link_count(RouterClass::kCore));
  EXPECT_EQ(census.count(RouterClass::kCpe),
            topo_.link_count(RouterClass::kCpe));
}

TEST_F(MineArchiveTest, CensusMatchesTopologyGroundTruth) {
  const LinkCensus mined = mine_archive(archive_, period_);
  const LinkCensus truth = census_from_topology(topo_, period_);
  ASSERT_EQ(mined.size(), truth.size());
  for (const CensusLink& t : truth.links()) {
    const auto found = mined.find_by_name(t.name);
    ASSERT_TRUE(found.has_value()) << t.name;
    const CensusLink& m = mined.link(*found);
    EXPECT_EQ(m.subnet, t.subnet);
    EXPECT_EQ(m.cls, t.cls);
    EXPECT_EQ(m.multilink, t.multilink);
  }
}

TEST_F(MineArchiveTest, SystemIdsRecovered) {
  const LinkCensus census = mine_archive(archive_, period_);
  for (const Router& r : topo_.routers()) {
    const Symbol host = census.hostname_of(r.system_id);
    ASSERT_TRUE(host.valid()) << r.hostname;
    EXPECT_EQ(host, r.hostname);
  }
}

TEST_F(MineArchiveTest, LifetimesCoverPeriod) {
  const LinkCensus census = mine_archive(archive_, period_);
  for (const CensusLink& l : census.links()) {
    // Links exist for the whole study; mined lifetimes (with slack) should
    // cover nearly all of it.
    EXPECT_LE(l.lifetime.begin, period_.begin + Duration::days(12));
    EXPECT_GE(l.lifetime.end, period_.end - Duration::days(12));
  }
}

TEST_F(MineArchiveTest, ArchiveHasPerRouterRevisions) {
  EXPECT_GT(archive_.size(), topo_.router_count());  // several per router
  // Every router appears at least once.
  std::set<std::string> hosts;
  for (const ConfigFile& f : archive_.files()) hosts.insert(f.router_hostname);
  EXPECT_EQ(hosts.size(), topo_.router_count());
}

}  // namespace
}  // namespace netfail
