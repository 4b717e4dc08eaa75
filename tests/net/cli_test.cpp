// Strict flag validation for the serve/replay verbs, two ways:
//
//   - the flags:: validators directly (unit level, every rejection class);
//   - the installed `netfail` binary as a subprocess (NETFAIL_CLI_BIN is
//     injected by CMake): a bad port or a missing required flag must print
//     usage and exit 2 *before* any bundle is loaded or socket opened —
//     same contract the collector verb already honors.
//
// Plus `netfail analyze` end to end: a simulated bundle must print exactly
// the comparison the in-process pipeline renders, and a corrupt optional
// bundle file must fail the load rather than be read as absent.
//
// Plus the NETFAIL_ASSERT death test in the collector_test style: a
// zero-capacity ingest queue is a programming error, not a config error.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/flags.hpp"
#include "src/common/metrics.hpp"
#include "src/net/queue.hpp"

namespace netfail {
namespace {

TEST(FlagValidation, ParsePortAcceptsTheFullRange) {
  EXPECT_EQ(*flags::parse_port("--syslog-port", "1"), 1);
  EXPECT_EQ(*flags::parse_port("--syslog-port", "5140"), 5140);
  EXPECT_EQ(*flags::parse_port("--syslog-port", "65535"), 65535);
}

TEST(FlagValidation, ParsePortRejectsEverythingElse) {
  EXPECT_FALSE(flags::parse_port("--p", "0").ok());      // reserved
  EXPECT_FALSE(flags::parse_port("--p", "65536").ok());  // overflow
  EXPECT_FALSE(flags::parse_port("--p", "99999").ok());
  EXPECT_FALSE(flags::parse_port("--p", "-1").ok());
  EXPECT_FALSE(flags::parse_port("--p", "").ok());
  EXPECT_FALSE(flags::parse_port("--p", "80x").ok());  // trailing junk
  EXPECT_FALSE(flags::parse_port("--p", " 80").ok());
  EXPECT_FALSE(flags::parse_port("--p", "0x50").ok());
}

TEST(FlagValidation, ParseProbabilityIsClosedUnitInterval) {
  EXPECT_DOUBLE_EQ(*flags::parse_probability("--loss", "0"), 0.0);
  EXPECT_DOUBLE_EQ(*flags::parse_probability("--loss", "0.05"), 0.05);
  EXPECT_DOUBLE_EQ(*flags::parse_probability("--loss", "1"), 1.0);
  EXPECT_FALSE(flags::parse_probability("--loss", "1.5").ok());
  EXPECT_FALSE(flags::parse_probability("--loss", "-0.1").ok());
  EXPECT_FALSE(flags::parse_probability("--loss", "nan").ok());
  EXPECT_FALSE(flags::parse_probability("--loss", "5%").ok());
}

TEST(FlagValidation, ParseNonnegRealRejectsNegativesAndJunk) {
  EXPECT_DOUBLE_EQ(*flags::parse_nonneg_real("--rate", "0"), 0.0);
  EXPECT_DOUBLE_EQ(*flags::parse_nonneg_real("--rate", "250000"), 250000.0);
  EXPECT_FALSE(flags::parse_nonneg_real("--rate", "-1").ok());
  EXPECT_FALSE(flags::parse_nonneg_real("--rate", "fast").ok());
  EXPECT_FALSE(flags::parse_nonneg_real("--rate", "inf").ok());
}

TEST(FlagValidation, ParseShardCountAcceptsSaneRange) {
  EXPECT_EQ(*flags::parse_shard_count("--shards", "1"), 1u);
  EXPECT_EQ(*flags::parse_shard_count("--shards", "2"), 2u);
  EXPECT_EQ(*flags::parse_shard_count("--shards", "16"), 16u);
  EXPECT_EQ(*flags::parse_shard_count("--shards", "256"), 256u);
}

TEST(FlagValidation, ParseShardCountRejectsEverythingElse) {
  EXPECT_FALSE(flags::parse_shard_count("--shards", "0").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", "-1").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", "257").ok());  // cap
  EXPECT_FALSE(flags::parse_shard_count("--shards", "").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", "2x").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", " 2").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", "0x2").ok());
  EXPECT_FALSE(flags::parse_shard_count("--shards", "lots").ok());
}

#ifdef NETFAIL_CLI_BIN
/// Exit status of `netfail <args>` with output discarded.
int cli_exit(const std::string& args) {
  const std::string cmd =
      std::string(NETFAIL_CLI_BIN) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliValidation, ServeRejectsBadPortsBeforeTouchingTheBundle) {
  // --dir intentionally nonexistent: exit 2 proves validation fired first
  // (a bundle-load failure would exit 1).
  EXPECT_EQ(cli_exit("serve --dir=/nonexistent --syslog-port=99999 "
                     "--lsp-port=5141"),
            2);
  EXPECT_EQ(cli_exit("serve --dir=/nonexistent --syslog-port=0 "
                     "--lsp-port=5141"),
            2);
  EXPECT_EQ(cli_exit("serve --dir=/nonexistent --syslog-port=bogus "
                     "--lsp-port=5141"),
            2);
}

TEST(CliValidation, ServeRejectsBadShardCounts) {
  const std::string base =
      "serve --dir=/nonexistent --syslog-port=5140 --lsp-port=5141 ";
  EXPECT_EQ(cli_exit(base + "--shards=0"), 2);
  EXPECT_EQ(cli_exit(base + "--shards=-2"), 2);
  EXPECT_EQ(cli_exit(base + "--shards=lots"), 2);
  EXPECT_EQ(cli_exit(base + "--shards=999"), 2);
}

TEST(CliValidation, ServeRequiresItsFlags) {
  EXPECT_EQ(cli_exit("serve"), 2);
  EXPECT_EQ(cli_exit("serve --dir=/nonexistent --syslog-port=5140"), 2);
}

TEST(CliValidation, ReplayRejectsBadFaultParameters) {
  const std::string base =
      "replay --dir=/nonexistent --target=127.0.0.1 --syslog-port=5140 "
      "--lsp-port=5141 ";
  EXPECT_EQ(cli_exit(base + "--loss=1.5"), 2);
  EXPECT_EQ(cli_exit(base + "--rate=-3"), 2);
  EXPECT_EQ(cli_exit(base + "--seed=banana"), 2);
}

TEST(CliValidation, ReplayRequiresATarget) {
  EXPECT_EQ(cli_exit("replay --dir=/nonexistent --syslog-port=5140 "
                     "--lsp-port=5141"),
            2);
}

TEST(CliValidation, EngineFlagsRejectOutOfRangeValuesInBothVerbs) {
  // stream and serve share one engine-flag parser: a horizon whose
  // millisecond conversion would overflow (or wrap negative), or a count
  // past 64 bits, is a usage error before the bundle is touched.
  for (const std::string& base :
       {std::string("stream --dir=/nonexistent "),
        std::string("serve --dir=/nonexistent --syslog-port=5140 "
                    "--lsp-port=5141 ")}) {
    SCOPED_TRACE(base);
    EXPECT_EQ(cli_exit(base + "--horizon=9223372036854775807"), 2);
    EXPECT_EQ(cli_exit(base + "--horizon=18446744073709551615"), 2);
    EXPECT_EQ(cli_exit(base + "--horizon=18446744073709551616"), 2);
    EXPECT_EQ(cli_exit(base + "--horizon=1099511627777"), 2);  // 2^40 + 1
    EXPECT_EQ(cli_exit(base + "--policy=maybe"), 2);
    // In-range values get past validation and fail on the bundle instead.
    EXPECT_EQ(cli_exit(base + "--horizon=1099511627776"), 1);
  }
}

TEST(CliValidation, UnknownFlagIsRejected) {
  EXPECT_EQ(cli_exit("serve --dir=/nonexistent --syslog-port=5140 "
                     "--lsp-port=5141 --frobnicate=yes"),
            2);
}

TEST(CliValidation, DetectorKnobsAreFixedNotFlags) {
  // The detector's EWMA weight, CUSUM threshold and drift window are
  // constants of the CLI; spelling them as flags is a usage error.
  for (const char* knob :
       {"--ewma-alpha=0.3", "--cusum-threshold=3", "--drift-window=10"}) {
    EXPECT_EQ(cli_exit(std::string("stream --dir=/nonexistent --detect ") +
                       knob),
              2);
    EXPECT_EQ(cli_exit(std::string("serve --dir=/nonexistent "
                                   "--syslog-port=5140 --lsp-port=5141 "
                                   "--detect ") +
                       knob),
              2);
  }
}

TEST(CliValidation, ServeRejectsBadPersistenceFlags) {
  const std::string base =
      "serve --dir=/nonexistent --syslog-port=5140 --lsp-port=5141 ";
  // parse_path: empty and swallowed-next-flag values.
  EXPECT_EQ(cli_exit(base + "--state-dir="), 2);
  EXPECT_EQ(cli_exit(base + "--state-dir=--http-port"), 2);
  // parse_duration: the unit is mandatory, zero is meaningless.
  EXPECT_EQ(cli_exit(base + "--state-dir=/tmp/x --snapshot-every=30"), 2);
  EXPECT_EQ(cli_exit(base + "--state-dir=/tmp/x --snapshot-every=0s"), 2);
  EXPECT_EQ(cli_exit(base + "--state-dir=/tmp/x --snapshot-every=fast"), 2);
  // A count whose millisecond total overflows int64 (2^40 days).
  EXPECT_EQ(cli_exit(base +
                     "--state-dir=/tmp/x --snapshot-every=1099511627776d"),
            2);
  // --snapshot-every without --state-dir has nowhere to write.
  EXPECT_EQ(cli_exit(base + "--snapshot-every=30s"), 2);
  // --http-port shares parse_port's contract.
  EXPECT_EQ(cli_exit(base + "--http-port=99999"), 2);
  EXPECT_EQ(cli_exit(base + "--http-port=http"), 2);
}

TEST(CliValidation, ExportValidatesBeforeTouchingTheBundle) {
  EXPECT_EQ(cli_exit("export"), 2);  // --dir is required
  EXPECT_EQ(cli_exit("export --dir=/nonexistent --seed=banana"), 2);
  EXPECT_EQ(cli_exit("export --dir=/nonexistent --out="), 2);
  EXPECT_EQ(cli_exit("export --dir=/nonexistent --policy=maybe"), 2);
  // Valid flags get past validation and fail on the missing bundle.
  EXPECT_EQ(cli_exit("export --dir=/nonexistent --anonymize --seed=7"), 1);
}

TEST(CliValidation, AnalyzeValidatesBeforeTouchingTheBundle) {
  EXPECT_EQ(cli_exit("analyze"), 2);  // --dir is required
  EXPECT_EQ(cli_exit("analyze --dir=/nonexistent --policy=maybe"), 2);
  // Valid flags get past validation and fail on the missing bundle.
  EXPECT_EQ(cli_exit("analyze --dir=/nonexistent"), 1);
}

/// stdout of `netfail <args>`, stderr discarded.
std::string cli_stdout(const std::string& args) {
  const std::string cmd =
      std::string(NETFAIL_CLI_BIN) + " " + args + " 2>/dev/null";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  std::string out;
  if (p != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
    EXPECT_EQ(::pclose(p), 0) << cmd;
  }
  return out;
}

/// A fresh `simulate --small --seed=SEED` bundle under the test temp dir.
std::string simulated_bundle(const std::string& name, std::uint64_t seed) {
  const std::string dir = ::testing::TempDir() + "/" + name + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  EXPECT_EQ(cli_exit("simulate --out=" + dir + " --small --seed=" +
                     std::to_string(seed)),
            0);
  return dir;
}

TEST(CliAnalyze, PrintsTheInProcessPipelineComparison) {
  // The bundle path (simulate -> files -> analyze) and the simulator path
  // (run_pipeline) are one computation.
  for (const std::uint64_t seed : {3u, 11u}) {
    const std::string dir = simulated_bundle("cli_analyze", seed);
    analysis::PipelineOptions options;
    options.scenario = sim::test_scenario();
    options.scenario.seed = seed;
    const auto r = analysis::ScenarioCache::global().pipeline(options);
    EXPECT_EQ(cli_stdout("analyze --dir=" + dir),
              analysis::render_comparison(*r, r->census))
        << "seed " << seed;
    std::filesystem::remove_all(dir);
  }
}

TEST(CliAnalyze, CorruptListenerGapFileFailsEveryReader) {
  const std::string dir = simulated_bundle("cli_corrupt_gaps", 11);
  std::ofstream(dir + "/listener_gaps.tsv", std::ios::app) << "garbage row\n";
  EXPECT_EQ(cli_exit("analyze --dir=" + dir), 1);
  EXPECT_EQ(cli_exit("export --dir=" + dir), 1);
  EXPECT_EQ(cli_exit("stream --dir=" + dir), 1);
  std::filesystem::remove_all(dir);
}

TEST(CliAnalyze, SimulateReportsAFailedMetaWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string dir = ::testing::TempDir() + "/cli_meta_full_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/META");
  EXPECT_EQ(cli_exit("simulate --out=" + dir + " --small --seed=11"), 1);
  std::filesystem::remove_all(dir);
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

TEST(CliExport, SimulatedBundleRoundTripsThroughExportAndAnonymize) {
  // The full shareable-data path end to end: simulate writes a bundle to
  // disk, export renders it, --anonymize must preserve the structure while
  // scrubbing every link name the plain export shows.
  const std::string dir = ::testing::TempDir() + "/cli_export_bundle";
  const std::string plain_path = ::testing::TempDir() + "/export_plain.txt";
  const std::string anon_path = ::testing::TempDir() + "/export_anon.txt";
  ASSERT_EQ(cli_exit("simulate --out=" + dir + " --small --seed=11"), 0);
  ASSERT_EQ(cli_exit("export --dir=" + dir + " --out=" + plain_path), 0);
  ASSERT_EQ(cli_exit("export --dir=" + dir + " --out=" + anon_path +
                     " --anonymize"),
            0);

  const std::string plain = slurp(plain_path);
  const std::string anon = slurp(anon_path);
  ASSERT_EQ(plain.substr(0, 18), "netfail-export v1\n");
  ASSERT_EQ(anon.substr(0, 18), "netfail-export v1\n");

  // Same structure: identical line counts and identical "links N" header.
  const auto count_lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  EXPECT_EQ(count_lines(plain), count_lines(anon));
  EXPECT_EQ(plain.substr(18, plain.find('\n', 18) - 18),
            anon.substr(18, anon.find('\n', 18) - 18));

  // Zero original name bytes: every link name in the plain export must be
  // absent from the anonymized one.
  std::size_t names_checked = 0;
  for (std::size_t at = plain.find("link ", 18); at != std::string::npos;
       at = plain.find("link ", at + 1)) {
    if (at != 0 && plain[at - 1] != '\n') continue;  // "link " mid-line
    const std::string name =
        plain.substr(at + 5, plain.find('\n', at) - at - 5);
    EXPECT_EQ(anon.find(name), std::string::npos) << name;
    ++names_checked;
  }
  EXPECT_GT(names_checked, 0u);
}
#endif  // NETFAIL_CLI_BIN

using QueueDeathTest = ::testing::Test;

TEST(QueueDeathTest, ZeroCapacityQueueDies) {
  net::WaitSet ws;
  EXPECT_DEATH(net::BoundedMpsc<int>(ws, 0), "capacity must be positive");
}

}  // namespace
}  // namespace netfail
