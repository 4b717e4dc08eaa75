// Bundle generation and loading. Loading follows `netfail`'s own
// load_bundle call for call, including its copies of the syslog collector
// and the LSP records out of the const read results, so the traced
// sequences and the set-up timing pay what a verb pays.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "harness.hpp"
#include "src/config/archive.hpp"
#include "src/config/miner.hpp"
#include "src/io/config_dir.hpp"
#include "src/io/interval_file.hpp"
#include "src/io/lsp_capture.hpp"
#include "src/io/syslog_file.hpp"
#include "src/io/ticket_file.hpp"
#include "src/sim/network_sim.hpp"
#include "src/sim/scenario.hpp"

namespace nfbench {

using namespace netfail;
namespace fs = std::filesystem;

namespace {

// Events (syslog lines + LSPs) in the seed-7 bundle of each kind. Per-link
// failure rates are drawn per seed, so raw seeds differ in volume by up to
// ~10% (busy) and ~4% (cenic); holding every bundle within
// kVolumeTolerance of these lets a seed change a bundle's content without
// changing how much work it is.
constexpr double kCenicEvents = 123554;
constexpr double kBusyEvents = 730866;
constexpr double kVolumeTolerance = 0.02;
constexpr std::uint64_t kMaxCandidates = 16;

bool read_meta(const fs::path& dir, TimeRange& period, std::string& err) {
  std::FILE* meta = std::fopen((dir / "META").string().c_str(), "r");
  if (meta == nullptr) {
    err = "no META file in bundle " + dir.string();
    return false;
  }
  long long value = 0;
  char key[64];
  while (std::fscanf(meta, "%63s %lld", key, &value) == 2) {
    if (std::strcmp(key, "period_begin_ms") == 0) {
      period.begin = TimePoint::from_unix_millis(value);
    } else if (std::strcmp(key, "period_end_ms") == 0) {
      period.end = TimePoint::from_unix_millis(value);
    }
  }
  std::fclose(meta);
  if (period.empty()) {
    err = "META has no valid period";
    return false;
  }
  return true;
}

}  // namespace

bool load_bundle(const std::string& dir_arg, Bundle& out, Tracer& t,
                 std::string& err) {
  const fs::path dir(dir_arg);
  {
    SpanScope s(t, "io.read_meta");
    if (!read_meta(dir, out.period, err)) return false;
  }
  io::ConfigDirStats config_stats;
  const Result<ConfigArchive> archive = [&] {
    SpanScope s(t, "io.read_configs");
    return io::read_config_dir((dir / "configs").string(), &config_stats);
  }();
  if (!archive) {
    err = archive.error().to_string();
    return false;
  }
  {
    SpanScope s(t, "io.read_syslog");
    const auto collector =
        io::read_syslog_file((dir / "messages.log").string(), out.period.begin);
    if (!collector) {
      err = collector.error().to_string();
      return false;
    }
    out.collector = *collector;
  }
  {
    SpanScope s(t, "io.read_lsp");
    const auto records = io::read_lsp_capture((dir / "listener.nfc").string());
    if (!records) {
      err = records.error().to_string();
      return false;
    }
    out.records = *records;
  }
  {
    SpanScope s(t, "io.read_tickets");
    if (const auto tk = io::read_ticket_file((dir / "tickets.tsv").string())) {
      out.tickets = *tk;
    }
  }
  {
    SpanScope s(t, "io.read_gaps");
    if (const auto g =
            io::read_interval_file((dir / "listener_gaps.tsv").string())) {
      out.gaps = *g;
    }
  }
  {
    SpanScope s(t, "config.mine");
    MiningStats mining;
    out.census = mine_archive(*archive, out.period, {}, &mining);
  }
  return true;
}

bool write_bundle(const std::string& workload, std::uint64_t seed,
                  const std::string& dir_arg, std::string& err) {
  sim::ScenarioParams scenario = sim::cenic_scenario();
  double nominal_events = kCenicEvents;
  if (workload == "busy") {
    // Same topology, period and config archive; eight times the failure
    // arrivals, so the event path rather than config loading dominates.
    scenario.core_rate_median *= 8;
    scenario.cpe_rate_median *= 8;
    nominal_events = kBusyEvents;
  } else if (workload != "cenic") {
    err = "unknown bundle kind " + workload;
    return false;
  }
  // Candidates come from simulation seeds derived from `seed`; the first
  // within tolerance of the nominal volume is kept (the closest if none
  // is), so one seed always yields the same bundle.
  std::optional<sim::SimulationResult> best;
  double best_dev = 0;
  std::uint64_t best_seed = 0, candidates = 0;
  while (candidates < kMaxCandidates &&
         (!best || best_dev > kVolumeTolerance)) {
    scenario.seed = seed * kMaxCandidates + candidates++;
    sim::SimulationResult candidate = sim::run_simulation(scenario);
    const double events = static_cast<double>(
        candidate.collector.size() + candidate.listener.records().size());
    const double dev = std::abs(events / nominal_events - 1.0);
    if (!best || dev < best_dev) {
      best.emplace(std::move(candidate));
      best_dev = dev;
      best_seed = scenario.seed;
    }
  }
  scenario.seed = best_seed;
  const sim::SimulationResult& sim = *best;
  const fs::path dir(dir_arg);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    err = "cannot create " + dir.string() + ": " + ec.message();
    return false;
  }
  const auto check = [&err](Status s, const char* what) {
    if (!s) err = std::string(what) + ": " + s.error().to_string();
    return s.ok();
  };
  if (!check(io::write_syslog_file(sim.collector,
                                   (dir / "messages.log").string()),
             "messages.log") ||
      !check(io::write_lsp_capture(sim.listener.records(),
                                   (dir / "listener.nfc").string()),
             "listener.nfc") ||
      !check(io::write_config_dir(
                 generate_archive(sim.topology, scenario.period),
                 (dir / "configs").string()),
             "configs") ||
      !check(io::write_ticket_file(sim.tickets,
                                   (dir / "tickets.tsv").string()),
             "tickets.tsv") ||
      !check(io::write_interval_file(sim.truth.listener_gaps(),
                                     (dir / "listener_gaps.tsv").string()),
             "listener_gaps.tsv")) {
    return false;
  }
  std::FILE* meta = std::fopen((dir / "META").string().c_str(), "w");
  if (meta == nullptr) {
    err = "cannot write META";
    return false;
  }
  std::fprintf(meta, "period_begin_ms\t%lld\nperiod_end_ms\t%lld\n",
               static_cast<long long>(scenario.period.begin.unix_millis()),
               static_cast<long long>(scenario.period.end.unix_millis()));
  if (std::fclose(meta) != 0) {
    err = "cannot write META";
    return false;
  }
  std::printf("%s\n", JsonObject()
                          .integer("sim_seed", best_seed)
                          .integer("candidates", candidates)
                          .integer("syslog_lines", sim.collector.size())
                          .integer("lsps", sim.listener.records().size())
                          .done()
                          .c_str());
  return true;
}

}  // namespace nfbench
