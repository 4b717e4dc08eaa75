// Tests for mining configs/ through io::ConfigQueue, as io::read_bundle
// does: host directories taken off a shared queue by the load's threads,
// parsed there, and folded on the caller in host-name order.
//
// Every tree is checked three ways: read_bundle's census and config_files
// against mine_archive over read_config_dir (the serial path), against
// mine_archive over the archive the test wrote (in (host, capture time)
// order), and the queue's own stats against read_config_dir's. Censuses
// are compared link by link (names, endpoints in order, subnets,
// lifetimes, classes) and by the hostname of every system id the configs
// name. The trees mix what the listing must skip with what makes the fold
// order visible: two host directories whose configs carry one hostname
// with different system ids (the later host in name order wins, so a fold
// in completion order differs), and a host whose system id changes with
// every revision, named so that name order is not time order (the latest
// revision wins, so an unsorted host differs).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/strfmt.hpp"
#include "src/config/miner.hpp"
#include "src/io/bundle.hpp"
#include "src/io/config_dir.hpp"
#include "src/topology/generator.hpp"
#include "tests/io/temp_dir.hpp"

namespace netfail::io {
namespace {

namespace fs = std::filesystem;

const TimeRange kPeriod{TimePoint::from_civil(2011, 1, 1),
                        TimePoint::from_civil(2012, 1, 1)};

/// A bundle with empty syslog and LSP files (so the two load tasks start
/// draining the queue at once) and an empty configs/ for the test to fill.
void write_empty_bundle(const fs::path& dir) {
  ASSERT_TRUE(write_bundle(dir.string(), kPeriod, syslog::Collector{}, {},
                           ConfigArchive{}, TicketStore{}, IntervalSet{})
                  .ok());
}

/// "net" statement for a system id made of `n`.
std::string net_of(std::uint32_t n) {
  return strformat("49.0001.%04x.%04x.%04x.00", n >> 16, n & 0xffff, 0x5eedu);
}

struct Iface {
  std::string name;
  std::string address;
};

std::string config_text(const std::string& hostname, std::uint32_t sysid,
                        const std::vector<Iface>& ifaces) {
  std::string out = "!\nhostname " + hostname + "\n!\n";
  for (const Iface& i : ifaces) {
    out += "interface " + i.name + "\n description to a peer\n ip address " +
           i.address + " 255.255.255.254\n!\n";
  }
  out += "router isis cenic\n net " + net_of(sysid) + "\n!\nend\n";
  return out;
}

/// Every system id the archive's configs name.
std::vector<OsiSystemId> system_ids_of(const ConfigArchive& archive) {
  std::vector<OsiSystemId> ids;
  for (const ConfigFile& f : archive.files()) {
    const Result<MinedConfig> mined = parse_config(f.text);
    if (mined && mined->has_system_id) ids.push_back(mined->system_id);
  }
  return ids;
}

void expect_same_census(const LinkCensus& got, const LinkCensus& want,
                        const std::vector<OsiSystemId>& system_ids) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const CensusLink& g = got.links()[i];
    const CensusLink& w = want.links()[i];
    EXPECT_EQ(g.name, w.name) << "link " << i;
    EXPECT_EQ(g.a.host, w.a.host) << w.name;
    EXPECT_EQ(g.a.iface, w.a.iface) << w.name;
    EXPECT_EQ(g.a.address, w.a.address) << w.name;
    EXPECT_EQ(g.b.host, w.b.host) << w.name;
    EXPECT_EQ(g.b.iface, w.b.iface) << w.name;
    EXPECT_EQ(g.b.address, w.b.address) << w.name;
    EXPECT_EQ(g.subnet, w.subnet) << w.name;
    EXPECT_EQ(g.lifetime, w.lifetime) << w.name;
    EXPECT_EQ(g.cls, w.cls) << w.name;
    EXPECT_EQ(g.multilink, w.multilink) << w.name;
  }
  for (const OsiSystemId& id : system_ids) {
    EXPECT_EQ(got.hostname_of(id), want.hostname_of(id)) << id.to_string();
  }
}

/// read_bundle on `bundle` against the serial path and against `written`,
/// the valid config files as written, in (host, capture time) order.
void expect_load_matches(const fs::path& bundle, const ConfigArchive& written) {
  const Result<Bundle> b = read_bundle(bundle.string());
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  const std::string configs = (bundle / "configs").string();
  ConfigDirStats serial_stats;
  const Result<ConfigArchive> archive = read_config_dir(configs, &serial_stats);
  ASSERT_TRUE(archive.ok()) << archive.error().to_string();
  EXPECT_EQ(b->config_files, serial_stats.files);
  EXPECT_EQ(b->config_files, written.size());

  const std::vector<OsiSystemId> ids = system_ids_of(written);
  {
    SCOPED_TRACE("against read_config_dir");
    expect_same_census(b->census, mine_archive(*archive, kPeriod), ids);
  }
  {
    SCOPED_TRACE("against the written archive");
    expect_same_census(b->census, mine_archive(written, kPeriod), ids);
  }

  ConfigQueue queue(configs);
  ASSERT_TRUE(queue.status().ok());
  queue.drain();
  ConfigDirStats queue_stats;
  ASSERT_TRUE(queue.fold(kPeriod, &queue_stats).ok());
  EXPECT_EQ(queue_stats.files, serial_stats.files);
  EXPECT_EQ(queue_stats.skipped, serial_stats.skipped);
}

/// Writes files under configs/: file() any file, config() a config file
/// named by its capture time, which written() then returns.
class TreeWriter {
 public:
  explicit TreeWriter(fs::path configs) : configs_(std::move(configs)) {}

  void file(const std::string& host, const std::string& name,
            const std::string& text) {
    fs::create_directories(configs_ / host);
    std::ofstream(configs_ / host / name) << text;
  }
  void config(const std::string& host, std::int64_t seconds,
              const std::string& text) {
    file(host, std::to_string(seconds) + ".cfg", text);
    files_.push_back(
        ConfigFile{host, TimePoint::from_unix_seconds(seconds), text});
  }
  /// The config() files in (host, capture time) order.
  ConfigArchive written() {
    std::sort(files_.begin(), files_.end(),
              [](const ConfigFile& a, const ConfigFile& b) {
                if (a.router_hostname != b.router_hostname) {
                  return a.router_hostname < b.router_hostname;
                }
                return a.captured_at < b.captured_at;
              });
    ConfigArchive archive;
    for (const ConfigFile& f : files_) archive.add(f);
    return archive;
  }

 private:
  fs::path configs_;
  std::vector<ConfigFile> files_;
};

/// The order-sensitive hosts: "a-twin" (many revisions) and "b-twin" (one)
/// both configure hostname "twin" with different system ids, and "c-drift"
/// changes its system id in every revision.
void write_order_sensitive_hosts(TreeWriter& tree, int big_revisions) {
  const std::int64_t t0 = kPeriod.begin.unix_seconds();
  for (int i = 0; i < big_revisions; ++i) {
    tree.config("a-twin", t0 + 600 * i, config_text("twin", 0x1000, {}));
  }
  tree.config("b-twin", t0 + 300, config_text("twin", 0x2000, {}));
  // Written out of time order, with stems of 1 to 7 digits, so neither
  // creation nor name order is time order.
  for (int i = 0; i < 60; ++i) {
    const std::int64_t seconds = (i % 2 == 0 ? 7 : 70'000) * (i + 1);
    tree.config("c-drift", seconds,
                config_text("drifter", 0x3000 + static_cast<std::uint32_t>(i),
                            {}));
  }
}

/// A ring of `hosts` routers, 1-4 revisions each; odd hosts drop the link
/// to their successor in their last revision, so lifetimes differ.
void write_ring(TreeWriter& tree, int hosts) {
  const std::int64_t t0 = kPeriod.begin.unix_seconds();
  for (int k = 0; k < hosts; ++k) {
    const std::string host = strformat("r%02d", k);
    const int prev = (k + hosts - 1) % hosts;
    const int revisions = 1 + k % 4;
    for (int j = 0; j < revisions; ++j) {
      std::vector<Iface> ifaces = {
          {"Gi0/0", strformat("10.%d.0.0", k)},
          {"Gi0/1", strformat("10.%d.0.1", prev)},
      };
      if (k % 2 == 1 && j == revisions - 1 && revisions > 1) {
        ifaces.erase(ifaces.begin());
      }
      tree.config(host, t0 + 86'400 * (k + 9 * j),
                  config_text(host, static_cast<std::uint32_t>(k), ifaces));
    }
  }
}

TEST(ConfigQueue, MixedTreeMatchesTheSerialPath) {
  TempDir dir;
  write_empty_bundle(dir.path());
  const fs::path configs = dir.path() / "configs";
  TreeWriter tree(configs);
  const std::int64_t t0 = kPeriod.begin.unix_seconds();
  write_ring(tree, 40);  // more hosts than the load has threads
  write_order_sensitive_hosts(tree, 200);

  // What the listing skips.
  fs::create_directories(configs / "empty-host");
  std::ofstream(configs / "README") << "not a host\n";
  fs::create_symlink("README", configs / "link-to-file");
  fs::create_symlink("nowhere", configs / "dangling");
  fs::create_symlink("loop", configs / "loop");
  tree.file("r01", "notes.txt", "hostname r01\n");
  tree.file("r01", "garbage.cfg", "hostname r01\n");
  tree.file("r01", "18446744073709552616.cfg", "hostname r01\n");
  tree.file("r01", "9007199254740992.cfg", "hostname r01\n");
  fs::create_directories(configs / "r02" / "12345.cfg");
  fs::create_symlink("77.cfg", configs / "r02" / "77.cfg");  // a loop
  // Parsed but failing: no hostname line. It still counts as a file.
  tree.config("r03", t0 + 5, "interface Gi0/0\n ip address 10.3.0.0 "
                             "255.255.255.254\n");

  expect_load_matches(dir.path(), tree.written());

  ConfigDirStats stats;
  ASSERT_TRUE(read_config_dir(configs.string(), &stats).ok());
  // 4 top-level non-hosts; 4 in r01; the directory and the loop in r02.
  EXPECT_EQ(stats.skipped, 4u + 4u + 2u);
}

TEST(ConfigQueue, FoldOnceMinedBeforeTheOtherDrainerIsJoined) {
  // read_bundle folds as soon as mined() holds, before it joins the tasks
  // that drained the queue with it: what they parsed must be visible.
  TempDir dir;
  TreeWriter tree(dir.path());
  write_ring(tree, 30);
  write_order_sensitive_hosts(tree, 100);
  const ConfigArchive written = tree.written();
  for (int run = 0; run < 5; ++run) {
    ConfigQueue queue(dir.path().string());
    std::thread helper([&queue] { queue.drain(); });
    queue.drain();
    while (!queue.mined()) std::this_thread::yield();
    const Result<LinkCensus> census = queue.fold(kPeriod);
    helper.join();
    ASSERT_TRUE(census.ok()) << census.error().to_string();
    expect_same_census(*census, mine_archive(written, kPeriod),
                       system_ids_of(written));
  }
}

TEST(ConfigQueue, OneHostWithThousandsOfFiles) {
  TempDir dir;
  write_empty_bundle(dir.path());
  TreeWriter tree(dir.path() / "configs");
  write_order_sensitive_hosts(tree, 3000);
  const std::int64_t t0 = kPeriod.begin.unix_seconds();
  tree.config("r1", t0, config_text("r1", 1, {{"Gi0/0", "10.0.0.0"}}));
  tree.config("r2", t0, config_text("r2", 2, {{"Gi0/0", "10.0.0.1"}}));
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    expect_load_matches(dir.path(), tree.written());
  }
}

TEST(ConfigQueue, SimulatedArchiveMatchesTheSerialPath) {
  const Topology topo = generate_topology(TopologyParams{}.scaled_down(8));
  const ConfigArchive original = generate_archive(topo, kPeriod);
  TempDir dir;
  write_empty_bundle(dir.path());
  ASSERT_TRUE(
      write_config_dir(original, (dir.path() / "configs").string()).ok());
  // generate_archive goes router by router in time order; put it in
  // (host, time) order, at the whole seconds its file names keep.
  std::vector<ConfigFile> files = original.files();
  std::stable_sort(files.begin(), files.end(),
                   [](const ConfigFile& a, const ConfigFile& b) {
                     return a.router_hostname < b.router_hostname;
                   });
  ConfigArchive written;
  for (ConfigFile& f : files) {
    f.captured_at = TimePoint::from_unix_seconds(f.captured_at.unix_seconds());
    written.add(std::move(f));
  }
  expect_load_matches(dir.path(), written);
}

TEST(ConfigQueue, EmptyConfigsGivesAnEmptyCensus) {
  TempDir dir;
  write_empty_bundle(dir.path());
  const Result<Bundle> b = read_bundle(dir.path().string());
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(b->census.size(), 0u);
  EXPECT_EQ(b->config_files, 0u);
}

TEST(ConfigQueue, SymlinkLoopInAHostsPlaceIsSkipped) {
  // Once an uncaught filesystem_error ("Too many levels of symbolic
  // links") that aborted every verb.
  TempDir dir;
  write_empty_bundle(dir.path());
  const fs::path configs = dir.path() / "configs";
  TreeWriter tree(configs);
  tree.config("r1", kPeriod.begin.unix_seconds(),
              config_text("r1", 1, {{"Gi0/0", "10.0.0.0"}}));
  fs::create_symlink("loop", configs / "loop");

  ConfigDirStats stats;
  const Result<ConfigArchive> archive =
      read_config_dir(configs.string(), &stats);
  ASSERT_TRUE(archive.ok()) << archive.error().to_string();
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  expect_load_matches(dir.path(), tree.written());
}

TEST(ConfigQueue, SymlinkLoopInsideAHostIsSkipped) {
  // Aborted the same way: the listing read the entry's type with the
  // throwing overload.
  TempDir dir;
  write_empty_bundle(dir.path());
  const fs::path configs = dir.path() / "configs";
  TreeWriter tree(configs);
  tree.config("r1", kPeriod.begin.unix_seconds(),
              config_text("r1", 1, {{"Gi0/0", "10.0.0.0"}}));
  fs::create_symlink("1000.cfg", configs / "r1" / "1000.cfg");

  ConfigDirStats stats;
  ASSERT_TRUE(read_config_dir(configs.string(), &stats).ok());
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  expect_load_matches(dir.path(), tree.written());
}

TEST(ConfigQueue, HostThatCannotBeListedFailsTheFoldNamingIt) {
  TempDir dir;
  TreeWriter tree(dir.path());
  tree.config("r1", 1000, config_text("r1", 1, {}));
  tree.config("r2", 1000, config_text("r2", 2, {}));
  // Listed as a host, gone by the time a thread takes it.
  ConfigQueue queue(dir.path().string());
  ASSERT_TRUE(queue.status().ok());
  fs::remove_all(dir.path() / "r2");
  queue.drain();
  const Result<LinkCensus> census = queue.fold(kPeriod);
  ASSERT_FALSE(census.ok());
  EXPECT_NE(census.error().message.find((dir.path() / "r2").string()),
            std::string::npos)
      << census.error().message;
}

TEST(ConfigQueue, MissingRootIsAnErrorBeforeAnyDrain) {
  ConfigQueue queue("/nonexistent/archive");
  ASSERT_FALSE(queue.status().ok());
  EXPECT_EQ(queue.status().error().code, ErrorCode::kNotFound);
  queue.drain();  // nothing to take
  EXPECT_FALSE(queue.fold(kPeriod).ok());
}

}  // namespace
}  // namespace netfail::io
