// Output does not depend on symbol ids.
//
// read_bundle mines the config archive on the calling thread while a
// worker parses messages.log, and both intern host and interface names, so
// the ids those names get depend on how the threads happen to run. Every
// rendering orders by the names' bytes, never by their ids; this pins it.
// Two fresh processes (render_bundle, injected by CMake as
// NETFAIL_RENDER_BUNDLE_BIN) load the same bundle: one interns the
// bundle's names first, in reverse lexicographic order, the other interns
// nothing first. Their ids differ; the analyze and export bytes must not.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>

#include "src/analysis/scenario_cache.hpp"
#include "src/config/archive.hpp"
#include "src/io/bundle.hpp"

#ifdef NETFAIL_RENDER_BUNDLE_BIN
namespace netfail::io {
namespace {

namespace fs = std::filesystem;

/// stdout of `render_bundle <args>`; fails the test on a non-zero exit.
std::string render(const std::string& args) {
  const std::string cmd = std::string(NETFAIL_RENDER_BUNDLE_BIN) + " " + args;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  std::string out;
  if (p != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
    const int rc = ::pclose(p);
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << cmd;
  }
  return out;
}

TEST(BundleSymbolOrder, OutputDoesNotDependOnSymbolIds) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("netfail_symbol_order_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const auto capture =
      analysis::ScenarioCache::global().capture(sim::test_scenario(11));
  const sim::SimulationResult& sim = capture->sim;
  ASSERT_TRUE(write_bundle(dir.string(), capture->period, sim.collector,
                           sim.listener.records(),
                           generate_archive(sim.topology, capture->period),
                           sim.tickets, sim.truth.listener_gaps())
                  .ok());

  // Every host and interface name the census holds, in reverse
  // lexicographic order: the opposite of any order a load would intern.
  std::set<std::string, std::greater<>> names;
  for (const CensusLink& link : capture->census.links()) {
    for (const CensusEndpoint& e : {link.a, link.b}) {
      names.insert(e.host.str());
      names.insert(e.iface.str());
    }
  }
  ASSERT_GT(names.size(), 10u);
  const fs::path names_file = dir / "names.txt";
  {
    std::ofstream out(names_file);
    for (const std::string& name : names) out << name << '\n';
  }

  const std::string args = dir.string() + " " + names_file.string();
  const std::string fresh = render(args);
  const std::string preinterned = render(args + " --preintern");
  fs::remove_all(dir);

  const std::size_t fresh_ids = fresh.find('\n');
  const std::size_t pre_ids = preinterned.find('\n');
  ASSERT_NE(fresh_ids, std::string::npos);
  ASSERT_NE(pre_ids, std::string::npos);
  // The premise: the two processes gave the names different ids.
  EXPECT_NE(fresh.substr(0, fresh_ids), preinterned.substr(0, pre_ids));
  const std::string rendered = fresh.substr(fresh_ids + 1);
  EXPECT_NE(rendered.find("==== export --anonymize\n"), std::string::npos);
  EXPECT_GT(rendered.size(), 10'000u);
  EXPECT_TRUE(rendered == preinterned.substr(pre_ids + 1))
      << "analyze/export bytes depend on symbol ids";
}

}  // namespace
}  // namespace netfail::io
#endif  // NETFAIL_RENDER_BUNDLE_BIN
