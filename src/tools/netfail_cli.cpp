// netfail — command-line front end.
//
//   netfail simulate --out DIR [--small] [--seed N]
//       Run the (CENIC-scale or scaled-down) simulation and write a full
//       capture bundle (src/io/bundle.hpp).
//
//   netfail analyze --dir DIR [--policy drop|assume-down|assume-up|hold-state]
//       Run the paper's analysis over a capture bundle (yours or a
//       simulated one) and print the comparison tables.
//
//   netfail stream --dir DIR [--policy P] [--horizon SECS]
//                  [--report-every N] [--json-metrics]
//       Tail a capture bundle through the online engine: interleave the
//       syslog and LSP streams in arrival order, maintain per-link failure
//       state incrementally in bounded memory, print rolling per-link
//       stats, and end with a metrics snapshot. IS-IS extraction runs on
//       the batch differ lanes a chunk ahead of the engine
//       (stream::IsisLookahead).
//
//   netfail serve --dir DIR --syslog-port N --lsp-port N [--policy P] ...
//       Run the live ingest gateway: a UDP syslog receiver and a TCP LSP
//       feed draining into the online engine. The bundle supplies the link
//       census and analysis period. Runs until SIGINT (drains, prints the
//       final reconstruction) or until a replay signals completion.
//       --shards N partitions analysis across N engines keyed by a stable
//       link hash, fed by one ingress loop (DESIGN.md sect. 14).
//       --state-dir DIR persists a durable engine checkpoint (restored on
//       the next start); --snapshot-every DUR writes it periodically and
//       SIGINT always writes a final one. --http-port N serves the live
//       query API (/healthz /metrics /links /links/{name} /checkpoint).
//
//   netfail export --dir DIR [--out FILE] [--anonymize] [--seed N]
//       Render a bundle's per-link analysis (failures, flap episodes,
//       transitions) as a deterministic shareable text report;
//       --anonymize remaps every hostname/interface through seeded
//       pseudonyms and redacts free-text reasons.
//
//   netfail replay --dir DIR --target HOST --syslog-port N --lsp-port N
//                  [--rate MSGS_PER_SEC] [--loss P] [--duplicate P]
//                  [--reorder P] [--resets N] [--seed N]
//       Stream a bundle at a serve instance over real sockets, optionally
//       through the wire-level fault injector.
//
// The bundle format is exactly what a real deployment can produce: a
// syslog archive, a PyRT-style LSP capture, a RANCID-style config archive,
// and ticket/outage exports; every verb reads it through io::read_bundle.
//
// Unrecognized flags are an error (usage + exit 2), not a silent no-op.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/analysis/flaps.hpp"
#include "src/analysis/pipeline.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/flags.hpp"
#include "src/common/metrics.hpp"
#include "src/common/strfmt.hpp"
#include "src/common/table.hpp"
#include "src/config/archive.hpp"
#include "src/io/bundle.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/lookahead.hpp"
#include "src/stream/merge.hpp"
#include "src/svc/export.hpp"
#include "src/svc/http.hpp"
#include "src/svc/snapshot.hpp"

namespace {

using namespace netfail;
namespace fs = std::filesystem;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  netfail simulate --out DIR [--small] [--seed N]\n"
      "  netfail analyze --dir DIR [--policy drop|assume-down|assume-up|"
      "hold-state]\n"
      "  netfail stream --dir DIR [--policy P] [--horizon SECS]\n"
      "                 [--report-every N] [--json-metrics] [--detect]\n"
      "  netfail serve --dir DIR --syslog-port N --lsp-port N [--policy P]\n"
      "                [--horizon SECS] [--host ADDR]\n"
      "                [--shards N] [--detect]\n"
      "                [--state-dir DIR] [--snapshot-every DUR]\n"
      "                [--http-port N]\n"
      "  netfail export --dir DIR [--out FILE] [--anonymize] [--seed N]\n"
      "                 [--policy P]\n"
      "  netfail replay --dir DIR --target HOST --syslog-port N "
      "--lsp-port N\n"
      "                 [--rate MSGS_PER_SEC] [--loss P] [--duplicate P]\n"
      "                 [--reorder P] [--resets N] [--seed N]\n");
  return 2;
}

/// Parse the subcommand's flags; on any unknown flag / missing value /
/// stray positional argument, print the problem and the usage text and make
/// the caller exit 2.
bool parse_or_usage(int argc, char** argv,
                    const std::vector<flags::FlagSpec>& specs,
                    flags::Parsed& out) {
  out = flags::parse_flags(argc, argv, 2, specs);
  if (out.ok && !out.positional.empty()) {
    out.ok = false;
    out.error = "unexpected argument: " + out.positional.front();
  }
  if (!out.ok) {
    std::fprintf(stderr, "netfail: %s\n", out.error.c_str());
    return false;
  }
  return true;
}

/// Parse a numeric flag value strictly: the whole string must be a
/// non-negative decimal number that fits in 64 bits, otherwise the caller
/// exits 2.
bool parse_number(const char* flag, const std::string& value,
                  std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value.front() == '-' ||
      errno == ERANGE) {
    std::fprintf(stderr, "netfail: flag %s expects a number, got '%s'\n", flag,
                 value.c_str());
    return false;
  }
  return true;
}

bool parse_policy(const std::string& p, analysis::AmbiguityPolicy& policy) {
  if (p == "drop") {
    policy = analysis::AmbiguityPolicy::kDrop;
  } else if (p == "assume-down") {
    policy = analysis::AmbiguityPolicy::kAssumeDown;
  } else if (p == "assume-up") {
    policy = analysis::AmbiguityPolicy::kAssumeUp;
  } else if (p == "hold-state") {
    policy = analysis::AmbiguityPolicy::kHoldState;
  } else {
    std::fprintf(stderr, "netfail: unknown --policy %s\n", p.c_str());
    return false;
  }
  return true;
}

/// Parse the engine flags shared by stream and serve (--policy, --horizon
/// and --detect). Errors print the problem; the caller exits 2.
bool parse_engine_flags(const flags::Parsed& args,
                        stream::EngineOptions& engine) {
  engine.detect.enabled = args.has("--detect");
  if (const auto p = args.value("--policy")) {
    if (!parse_policy(*p, engine.tracker.reconstruct.policy)) return false;
  }
  if (const auto h = args.value("--horizon")) {
    // Bare seconds, bounded like flags::parse_duration so the millisecond
    // conversion cannot overflow.
    std::uint64_t secs = 0;
    if (!parse_number("--horizon", *h, secs)) return false;
    if (secs > (1ull << 40)) {
      std::fprintf(stderr,
                   "netfail: flag --horizon expects at most 2^40 seconds, "
                   "got '%s'\n",
                   h->c_str());
      return false;
    }
    engine.tracker.reorder_horizon =
        Duration::seconds(static_cast<std::int64_t>(secs));
  }
  return true;
}

/// Post-run alert summary for --detect. Capture bundles carry no ground
/// truth, so the CLI reports the alert stream itself; precision/recall
/// scoring against injected failures lives in bench_detect and the tests.
void print_alert_summary(const detect::LinkDetector& detector,
                         const LinkCensus& census) {
  const std::vector<detect::LinkAlert> alerts = detector.sink().snapshot();
  std::uint64_t by_kind[3] = {0, 0, 0};
  std::unordered_map<LinkId, std::size_t> per_link;
  for (const detect::LinkAlert& a : alerts) {
    ++by_kind[static_cast<int>(a.kind)];
    ++per_link[a.link];
  }
  std::printf(
      "\ndetection: %zu alerts (%llu hard-down, %llu flap-cusum, %llu "
      "template-drift) over %llu syslog + %llu IS-IS observations\n",
      alerts.size(),
      static_cast<unsigned long long>(
          by_kind[static_cast<int>(detect::AlertKind::kHardDown)]),
      static_cast<unsigned long long>(
          by_kind[static_cast<int>(detect::AlertKind::kFlapCusum)]),
      static_cast<unsigned long long>(
          by_kind[static_cast<int>(detect::AlertKind::kTemplateDrift)]),
      static_cast<unsigned long long>(detector.counters().syslog_observed),
      static_cast<unsigned long long>(detector.counters().isis_observed));

  std::vector<std::pair<LinkId, std::size_t>> worst(per_link.begin(),
                                                    per_link.end());
  std::sort(worst.begin(), worst.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const std::size_t top = std::min<std::size_t>(5, worst.size());
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("    %-44s %zu alerts\n",
                census.link(worst[i].first).name.c_str(), worst[i].second);
  }
}

// ---- simulate ----------------------------------------------------------------

int cmd_simulate(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv,
                      {{"--out", true}, {"--small", false}, {"--seed", true}},
                      args)) {
    return usage();
  }
  const auto out = args.value("--out");
  if (!out) return usage();
  sim::ScenarioParams scenario =
      args.has("--small") ? sim::test_scenario() : sim::cenic_scenario();
  if (const auto seed = args.value("--seed")) {
    if (!parse_number("--seed", *seed, scenario.seed)) return usage();
  }

  std::fprintf(stderr, "simulating %s scenario (seed %llu)...\n",
               args.has("--small") ? "small" : "CENIC-scale",
               static_cast<unsigned long long>(scenario.seed));
  const sim::SimulationResult sim = sim::run_simulation(scenario);
  const ConfigArchive archive =
      generate_archive(sim.topology, scenario.period);
  if (Status s = io::write_bundle(*out, scenario.period, sim.collector,
                                  sim.listener.records(), archive, sim.tickets,
                                  sim.truth.listener_gaps());
      !s) {
    std::fprintf(stderr, "error writing bundle: %s\n",
                 s.error().to_string().c_str());
    return 1;
  }

  std::printf("wrote capture bundle to %s: %zu syslog lines, %zu LSP frames, "
              "%zu config files, %zu tickets, %zu listener-gap windows\n",
              out->c_str(), sim.collector.size(), sim.listener.records().size(),
              archive.size(), sim.tickets.size(),
              sim.truth.listener_gaps().ranges().size());
  return 0;
}

// ---- bundle loading (shared by every verb that reads one) --------------------

/// io::read_bundle plus a one-line summary on stderr; on failure prints the
/// error and returns false, and the verb exits 1.
bool load_bundle(const std::string& dir, io::Bundle& out) {
  Result<io::Bundle> bundle = io::read_bundle(dir);
  if (!bundle) {
    std::fprintf(stderr, "error: %s\n", bundle.error().to_string().c_str());
    return false;
  }
  out = std::move(*bundle);
  std::fprintf(stderr,
               "bundle: %zu configs -> %zu links; %zu syslog lines; %zu "
               "LSPs; %zu tickets\n",
               out.config_files, out.census.size(), out.collector.size(),
               out.lsp_records.size(), out.tickets.size());
  return true;
}

analysis::CaptureView capture_of(const io::Bundle& b) {
  return {b.period,      b.census,  b.collector,
          b.lsp_records, b.tickets, b.listener_gaps};
}

/// Frees the bundle's syslog lines and LSP records (and with them the
/// event files' mappings) once their transitions are extracted.
void drop_events(io::Bundle& b) {
  b.collector = syslog::Collector{};
  b.lsp_records = std::vector<isis::LspRecord>{};
}

// ---- analyze -----------------------------------------------------------------

int cmd_analyze(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv, {{"--dir", true}, {"--policy", true}},
                      args)) {
    return usage();
  }
  const auto dir_arg = args.value("--dir");
  if (!dir_arg) return usage();

  analysis::PipelineOptions options;
  if (const auto p = args.value("--policy")) {
    if (!parse_policy(*p, options.reconstruct.policy)) return usage();
  }

  io::Bundle bundle;
  if (!load_bundle(*dir_arg, bundle)) return 1;
  const analysis::AnalysisResult result =
      analysis::run_analysis(capture_of(bundle), options);
  drop_events(bundle);
  const std::string report = analysis::render_comparison(result, bundle.census);
  std::fwrite(report.data(), 1, report.size(), stdout);
  return 0;
}

// ---- stream ------------------------------------------------------------------

void print_rolling(const stream::StreamEngine& engine,
                   const io::Bundle& bundle, double events_per_sec) {
  const stream::LinkTracker& isis_t = engine.isis_tracker();
  const stream::LinkTracker& syslog_t = engine.syslog_tracker();
  std::printf(
      "[%s] %llu events (%.0f ev/s) | IS-IS: %llu failures %.1f h down, "
      "%zu links, %zu pending | syslog: %llu failures %.1f h down\n",
      engine.high_water().to_string().c_str(),
      static_cast<unsigned long long>(engine.events_ingested()),
      events_per_sec,
      static_cast<unsigned long long>(isis_t.counters().failures_released),
      isis_t.total_downtime().hours_f(), isis_t.tracked_links(),
      isis_t.pending_transitions(),
      static_cast<unsigned long long>(syslog_t.counters().failures_released),
      syslog_t.total_downtime().hours_f());

  // Worst links right now, by released downtime.
  std::vector<stream::LinkRunningStats> stats = isis_t.link_stats();
  std::sort(stats.begin(), stats.end(),
            [](const stream::LinkRunningStats& a,
               const stream::LinkRunningStats& b) {
              return a.downtime > b.downtime;
            });
  const std::size_t top = std::min<std::size_t>(3, stats.size());
  for (std::size_t i = 0; i < top; ++i) {
    const stream::LinkRunningStats& ls = stats[i];
    if (ls.failures == 0) break;
    std::printf("    %-44s %3zu failures  %8.2f h down  %zu flap episodes%s\n",
                bundle.census.link(ls.link).name.c_str(), ls.failures,
                ls.downtime.hours_f(), ls.flap_episodes,
                ls.state == LinkDirection::kDown ? "  [DOWN]" : "");
  }
}

int cmd_stream(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv,
                      {{"--dir", true},
                       {"--policy", true},
                       {"--horizon", true},
                       {"--report-every", true},
                       {"--json-metrics", false},
                       {"--detect", false}},
                      args)) {
    return usage();
  }
  const auto dir_arg = args.value("--dir");
  if (!dir_arg) return usage();

  stream::EngineOptions options;
  if (!parse_engine_flags(args, options)) return usage();
  std::uint64_t report_every = 200000;
  if (const auto r = args.value("--report-every")) {
    if (!parse_number("--report-every", *r, report_every)) return usage();
    if (report_every == 0) report_every = 200000;
  }

  io::Bundle bundle;
  if (!load_bundle(*dir_arg, bundle)) return 1;
  options.tracker.reconstruct.period = bundle.period;

  stream::StreamEngine engine(bundle.census, options);
  stream::EventMux mux =
      stream::EventMux::over_vectors(bundle.collector.lines(),
                                     bundle.lsp_records);
  stream::IsisLookahead lookahead(bundle.lsp_records, bundle.census);

  metrics::Histogram& latency = metrics::global().histogram(
      "stream.event_latency_us", metrics::exponential_bounds(1, 4, 10));

  using Clock = std::chrono::steady_clock;
  const Clock::time_point started = Clock::now();
  Clock::time_point window_start = started;
  std::uint64_t window_events = 0;

  while (std::optional<stream::StreamEvent> ev = mux.next()) {
    const Clock::time_point t0 = Clock::now();
    lookahead.feed(engine, *ev);
    const Clock::time_point t1 = Clock::now();
    latency.observe(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        1e3);
    ++window_events;
    if (engine.events_ingested() % report_every == 0) {
      const double secs =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  t1 - window_start)
                  .count()) /
          1e6;
      print_rolling(engine, bundle,
                    secs > 0 ? static_cast<double>(window_events) / secs : 0);
      window_start = t1;
      window_events = 0;
    }
  }
  engine.finish();

  const double total_secs =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                started)
              .count()) /
      1e6;

  // ---- final per-link table ---------------------------------------------------
  std::printf("\nstreamed %llu events (%llu syslog, %llu LSP) in %.2f s "
              "(%.0f events/s); %llu out-of-order drops\n",
              static_cast<unsigned long long>(engine.events_ingested()),
              static_cast<unsigned long long>(engine.syslog_events()),
              static_cast<unsigned long long>(engine.lsp_events()), total_secs,
              total_secs > 0
                  ? static_cast<double>(engine.events_ingested()) / total_secs
                  : 0,
              static_cast<unsigned long long>(
                  mux.stats().out_of_order_dropped));

  for (const auto* tracker :
       {&engine.isis_tracker(), &engine.syslog_tracker()}) {
    const bool is_isis = tracker == &engine.isis_tracker();
    const stream::TrackerCounters& c = tracker->counters();
    std::printf(
        "\n%s reconstruction: %llu failures on %zu links, %.1f h downtime, "
        "%llu flap episodes, %llu double-down, %llu double-up, "
        "%llu merged, %llu unterminated\n",
        is_isis ? "IS-IS" : "syslog",
        static_cast<unsigned long long>(c.failures_released),
        tracker->tracked_links(), tracker->total_downtime().hours_f(),
        static_cast<unsigned long long>(c.flap_episodes),
        static_cast<unsigned long long>(c.double_downs),
        static_cast<unsigned long long>(c.double_ups),
        static_cast<unsigned long long>(c.merged_duplicates),
        static_cast<unsigned long long>(c.unterminated));

    std::vector<stream::LinkRunningStats> stats = tracker->link_stats();
    std::sort(stats.begin(), stats.end(),
              [](const stream::LinkRunningStats& a,
                 const stream::LinkRunningStats& b) {
                return a.downtime > b.downtime;
              });
    TextTable table;
    table.set_header({"link", "failures", "downtime (h)", "flap episodes",
                      "availability (%)"});
    const Duration period = bundle.period.duration();
    const std::size_t top = std::min<std::size_t>(10, stats.size());
    for (std::size_t i = 0; i < top; ++i) {
      const stream::LinkRunningStats& ls = stats[i];
      if (ls.failures == 0) break;
      table.add_row(
          {bundle.census.link(ls.link).name, std::to_string(ls.failures),
           strformat("%.2f", ls.downtime.hours_f()),
           std::to_string(ls.flap_episodes),
           strformat("%.4f", 100.0 * (1.0 - ls.downtime / period))});
    }
    std::printf("%s", table.render().c_str());
  }

  if (options.detect.enabled) {
    print_alert_summary(engine.detector(), bundle.census);
  }

  std::printf("\n==== metrics snapshot ====\n%s",
              args.has("--json-metrics")
                  ? (metrics::global().render_json() + "\n").c_str()
                  : metrics::global().render_text().c_str());
  return 0;
}

// ---- serve -------------------------------------------------------------------

net::IngestGateway* g_serve_gateway = nullptr;
std::atomic<bool> g_interrupted{false};

void handle_sigint(int) {
  g_interrupted.store(true, std::memory_order_release);
  if (g_serve_gateway != nullptr) g_serve_gateway->request_stop();
}

int cmd_serve(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv,
                      {{"--dir", true},
                       {"--syslog-port", true},
                       {"--lsp-port", true},
                       {"--host", true},
                       {"--shards", true},
                       {"--policy", true},
                       {"--horizon", true},
                       {"--detect", false},
                       {"--state-dir", true},
                       {"--snapshot-every", true},
                       {"--http-port", true}},
                      args)) {
    return usage();
  }
  const auto dir_arg = args.value("--dir");
  const auto sport_arg = args.value("--syslog-port");
  const auto lport_arg = args.value("--lsp-port");
  if (!dir_arg || !sport_arg || !lport_arg) {
    std::fprintf(stderr,
                 "netfail: serve requires --dir, --syslog-port, --lsp-port\n");
    return usage();
  }

  std::string state_dir;
  if (const auto sd = args.value("--state-dir")) {
    const auto v = flags::parse_path("--state-dir", *sd);
    if (!v) {
      std::fprintf(stderr, "netfail: %s\n", v.error().to_string().c_str());
      return usage();
    }
    state_dir = *v;
  }
  Duration snapshot_every;  // zero = no periodic snapshots
  if (const auto se = args.value("--snapshot-every")) {
    const auto v = flags::parse_duration("--snapshot-every", *se);
    if (!v) {
      std::fprintf(stderr, "netfail: %s\n", v.error().to_string().c_str());
      return usage();
    }
    if (state_dir.empty()) {
      std::fprintf(stderr, "netfail: --snapshot-every requires --state-dir\n");
      return usage();
    }
    snapshot_every = *v;
  }
  std::uint16_t http_port = 0;
  bool http_enabled = false;
  if (const auto hp = args.value("--http-port")) {
    const auto v = flags::parse_port("--http-port", *hp);
    if (!v) {
      std::fprintf(stderr, "netfail: %s\n", v.error().to_string().c_str());
      return usage();
    }
    http_port = *v;
    http_enabled = true;
  }

  net::GatewayOptions options;
  if (!parse_engine_flags(args, options.engine)) return usage();
  const auto sport = flags::parse_port("--syslog-port", *sport_arg);
  const auto lport = flags::parse_port("--lsp-port", *lport_arg);
  if (!sport || !lport) {
    std::fprintf(stderr, "netfail: %s\n",
                 (sport ? lport.error() : sport.error()).to_string().c_str());
    return usage();
  }
  options.syslog_port = *sport;
  options.lsp_port = *lport;
  if (const auto host = args.value("--host")) options.bind_host = *host;
  if (const auto s = args.value("--shards")) {
    const auto n = flags::parse_shard_count("--shards", *s);
    if (!n) {
      std::fprintf(stderr, "netfail: %s\n", n.error().to_string().c_str());
      return usage();
    }
    options.shards = *n;
  }

  io::Bundle bundle;
  if (!load_bundle(*dir_arg, bundle)) return 1;
  options.capture_start = bundle.period.begin;
  options.engine.tracker.reconstruct.period = bundle.period;

  // Durable state: restore an existing snapshot before the gateway spawns
  // any thread (engine_setup runs in the gateway constructor), so a
  // restarted serve resumes mid-replay instead of starting cold.
  std::string snap_path;
  std::optional<svc::LoadedSnapshot> restored;
  if (!state_dir.empty()) {
    std::error_code ec;
    fs::create_directories(state_dir, ec);
    if (ec) {
      std::fprintf(stderr, "netfail: cannot create --state-dir %s: %s\n",
                   state_dir.c_str(), ec.message().c_str());
      return 1;
    }
    snap_path = (fs::path(state_dir) / svc::kSnapshotFileName).string();
    if (fs::exists(snap_path)) {
      auto loaded = svc::LoadedSnapshot::load(snap_path, bundle.census);
      if (!loaded) {
        std::fprintf(stderr, "netfail: cannot restore %s: %s\n",
                     snap_path.c_str(), loaded.error().to_string().c_str());
        return 1;
      }
      if (loaded->shard_count() != options.shards) {
        std::fprintf(stderr,
                     "netfail: snapshot %s has %u shards but --shards is %u; "
                     "restart with --shards %u or remove the state dir\n",
                     snap_path.c_str(), loaded->shard_count(), options.shards,
                     loaded->shard_count());
        return 1;
      }
      restored.emplace(std::move(*loaded));
      std::fprintf(stderr, "restoring checkpoint from %s\n", snap_path.c_str());
    }
  }
  if (restored.has_value()) {
    options.engine_setup = [&restored](std::uint32_t shard,
                                       stream::StreamEngine& engine) {
      if (Status st = restored->restore_shard(shard, engine); !st.ok()) {
        std::fprintf(stderr, "netfail: restoring shard %u failed: %s\n", shard,
                     st.error().to_string().c_str());
        std::exit(1);
      }
    };
  }

  net::IngestGateway gateway(bundle.census, options);
  if (Status st = gateway.start(); !st.ok()) {
    std::fprintf(stderr, "netfail: cannot start gateway: %s\n",
                 st.error().to_string().c_str());
    return 1;
  }
  g_serve_gateway = &gateway;
  std::signal(SIGINT, handle_sigint);
  std::fprintf(stderr,
               "listening: syslog udp://%s:%u, lsp tcp://%s:%u, %u shard%s "
               "(SIGINT drains and prints the reconstruction)\n",
               options.bind_host.c_str(), gateway.syslog_port(),
               options.bind_host.c_str(), gateway.lsp_port(),
               gateway.shard_count(), gateway.shard_count() == 1 ? "" : "s");

  // Durable snapshot writer: read-consistent per-shard checkpoints from the
  // consumer threads, serialized and renamed into place atomically.
  const auto write_snapshot = [&gateway, &bundle, &snap_path]() -> Status {
    const std::vector<stream::Checkpoint> cps = gateway.snapshot_engines();
    std::vector<const stream::StreamEngine*> engines;
    engines.reserve(cps.size());
    for (const stream::Checkpoint& cp : cps) engines.push_back(&cp.state());
    return svc::save_snapshot(snap_path, engines, bundle.census);
  };

  std::optional<svc::HttpServer> http;
  if (http_enabled) {
    svc::HttpOptions hopts;
    hopts.host = options.bind_host;
    hopts.port = http_port;
    hopts.period_begin = bundle.period.begin;
    svc::HttpServer::CheckpointFn checkpoint_fn;
    if (!state_dir.empty()) checkpoint_fn = write_snapshot;
    http.emplace(
        bundle.census, [&gateway] { return gateway.snapshot_engines(); },
        std::move(checkpoint_fn), std::move(hopts));
    if (Status st = http->start(); !st.ok()) {
      std::fprintf(stderr, "netfail: cannot start http server: %s\n",
                   st.error().to_string().c_str());
      gateway.stop();
      g_serve_gateway = nullptr;
      return 1;
    }
    std::fprintf(stderr, "http: http://%s:%u (/healthz /metrics /links "
                         "/checkpoint)\n",
                 options.bind_host.c_str(), http->port());
  }

  // The wait loop doubles as the periodic-snapshot timer: each pass is one
  // ~250ms slice, so the period is honored without a second clock source.
  const std::int64_t snapshot_period_ms = snapshot_every.total_millis();
  std::int64_t since_snapshot_ms = 0;
  for (;;) {
    if (gateway.wait_replay_complete(std::chrono::milliseconds(250))) break;
    if (g_interrupted.load(std::memory_order_acquire)) break;
    if (snapshot_period_ms > 0) {
      since_snapshot_ms += 250;
      if (since_snapshot_ms >= snapshot_period_ms) {
        since_snapshot_ms = 0;
        if (Status st = write_snapshot(); !st.ok()) {
          std::fprintf(stderr, "netfail: snapshot failed: %s\n",
                       st.error().to_string().c_str());
        }
      }
    }
  }
  std::signal(SIGINT, SIG_DFL);
  // Stop order matters: the HTTP server queries the gateway, so it goes
  // down first; the gateway then drains and takes its final checkpoints,
  // which the shutdown snapshot below persists.
  if (http.has_value()) http->stop();
  gateway.stop();
  g_serve_gateway = nullptr;

  if (!state_dir.empty()) {
    if (Status st = write_snapshot(); !st.ok()) {
      std::fprintf(stderr, "netfail: final snapshot failed: %s\n",
                   st.error().to_string().c_str());
    } else {
      std::fprintf(stderr, "checkpoint written to %s\n", snap_path.c_str());
    }
  }

  const net::GatewayCounters c = gateway.counters();
  std::printf(
      "\ningested %llu syslog datagrams (%llu enqueued, %llu dropped at the "
      "queue) and %llu LSP frames; the kernel dropped %llu datagrams "
      "before they were read\n"
      "connections: %llu accepted, %llu closed; backpressure pauses: %llu; "
      "torn frame tails: %llu\n",
      static_cast<unsigned long long>(c.syslog_datagrams),
      static_cast<unsigned long long>(c.syslog_enqueued),
      static_cast<unsigned long long>(c.syslog_queue_drops),
      static_cast<unsigned long long>(c.lsp_frames),
      static_cast<unsigned long long>(c.udp_kernel_drops),
      static_cast<unsigned long long>(c.connections_accepted),
      static_cast<unsigned long long>(c.connections_closed),
      static_cast<unsigned long long>(c.backpressure_pauses),
      static_cast<unsigned long long>(c.lsp_torn_tails));
  // The summary needs only the engines' counters, so the shard runs carry
  // no released objects.
  std::vector<stream::ShardRun> runs(gateway.shard_count());
  for (std::uint32_t s = 0; s < gateway.shard_count(); ++s) {
    runs[s].engine = &gateway.engine(s);
  }
  const stream::MergedRun merged = stream::merge_shard_runs(runs);
  std::printf(
      "final checkpoint at %s after %llu events\n"
      "IS-IS reconstruction: %llu failures, %.1f h downtime | syslog "
      "reconstruction: %llu failures, %.1f h downtime\n",
      merged.high_water.to_string().c_str(),
      static_cast<unsigned long long>(merged.events),
      static_cast<unsigned long long>(merged.isis.counters.failures_released),
      merged.isis.total_downtime.hours_f(),
      static_cast<unsigned long long>(merged.syslog.counters.failures_released),
      merged.syslog.total_downtime.hours_f());
  if (options.engine.detect.enabled) {
    std::printf("alerts at final checkpoint: %llu\n",
                static_cast<unsigned long long>(gateway.final_alerts()));
    for (std::uint32_t s = 0; s < gateway.shard_count(); ++s) {
      print_alert_summary(gateway.engine(s).detector(), bundle.census);
    }
  }
  return 0;
}

// ---- export ------------------------------------------------------------------

int cmd_export(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv,
                      {{"--dir", true},
                       {"--out", true},
                       {"--anonymize", false},
                       {"--seed", true},
                       {"--policy", true}},
                      args)) {
    return usage();
  }
  const auto dir_arg = args.value("--dir");
  if (!dir_arg) return usage();

  svc::ExportOptions options;
  options.anonymize = args.has("--anonymize");
  if (const auto seed = args.value("--seed")) {
    if (!parse_number("--seed", *seed, options.seed)) return usage();
  }
  analysis::ReconstructOptions recon;
  if (const auto p = args.value("--policy")) {
    if (!parse_policy(*p, recon.policy)) return usage();
  }
  std::string out_path;
  if (const auto out = args.value("--out")) {
    const auto v = flags::parse_path("--out", *out);
    if (!v) {
      std::fprintf(stderr, "netfail: %s\n", v.error().to_string().c_str());
      return usage();
    }
    out_path = *v;
  }

  io::Bundle bundle;
  if (!load_bundle(*dir_arg, bundle)) return 1;

  // The unsanitized reconstruction the stream engine also produces; both
  // sources' failures ride in one list (the renderer splits them).
  analysis::Reconstructed r =
      analysis::extract_and_reconstruct(capture_of(bundle), recon);
  drop_events(bundle);
  svc::ExportInputs inputs;
  inputs.census = &bundle.census;
  inputs.isis_episodes =
      analysis::detect_flaps(r.isis_recon.failures).episodes;
  inputs.syslog_episodes =
      analysis::detect_flaps(r.syslog_recon.failures).episodes;
  inputs.failures = std::move(r.syslog_recon.failures);
  inputs.failures.insert(inputs.failures.end(), r.isis_recon.failures.begin(),
                         r.isis_recon.failures.end());
  inputs.transitions = std::move(r.syslog.transitions);

  // The export is written as it is rendered, a piece at a time.
  std::FILE* f = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "netfail: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const Result<std::size_t> written =
      svc::render_export(inputs, options, [f](std::string_view piece) {
        return std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
      });
  const bool closed = f == stdout ? std::fflush(f) == 0 : std::fclose(f) == 0;
  if (!written || !closed) {
    std::fprintf(stderr, "netfail: short write to %s\n",
                 out_path.empty() ? "stdout" : out_path.c_str());
    return 1;
  }
  if (!out_path.empty()) {
    std::fprintf(stderr, "wrote %s export (%zu links, %zu bytes) to %s\n",
                 options.anonymize ? "anonymized" : "plain",
                 bundle.census.size(), *written, out_path.c_str());
  }
  return 0;
}

// ---- replay ------------------------------------------------------------------

int cmd_replay(int argc, char** argv) {
  flags::Parsed args;
  if (!parse_or_usage(argc, argv,
                      {{"--dir", true},
                       {"--target", true},
                       {"--syslog-port", true},
                       {"--lsp-port", true},
                       {"--rate", true},
                       {"--loss", true},
                       {"--duplicate", true},
                       {"--reorder", true},
                       {"--resets", true},
                       {"--seed", true}},
                      args)) {
    return usage();
  }
  const auto dir_arg = args.value("--dir");
  const auto target = args.value("--target");
  const auto sport_arg = args.value("--syslog-port");
  const auto lport_arg = args.value("--lsp-port");
  if (!dir_arg || !target || !sport_arg || !lport_arg) {
    std::fprintf(
        stderr,
        "netfail: replay requires --dir, --target, --syslog-port, "
        "--lsp-port\n");
    return usage();
  }

  net::ReplayOptions options;
  options.target_host = *target;
  const auto sport = flags::parse_port("--syslog-port", *sport_arg);
  const auto lport = flags::parse_port("--lsp-port", *lport_arg);
  if (!sport || !lport) {
    std::fprintf(stderr, "netfail: %s\n",
                 (sport ? lport.error() : sport.error()).to_string().c_str());
    return usage();
  }
  options.syslog_port = *sport;
  options.lsp_port = *lport;
  if (const auto r = args.value("--rate")) {
    const auto rate = flags::parse_nonneg_real("--rate", *r);
    if (!rate) {
      std::fprintf(stderr, "netfail: %s\n", rate.error().to_string().c_str());
      return usage();
    }
    options.rate = *rate;
  }
  const struct {
    const char* flag;
    double* out;
  } probs[] = {{"--loss", &options.faults.udp_loss},
               {"--duplicate", &options.faults.udp_duplicate},
               {"--reorder", &options.faults.udp_reorder}};
  for (const auto& pf : probs) {
    if (const auto v = args.value(pf.flag)) {
      const auto p = flags::parse_probability(pf.flag, *v);
      if (!p) {
        std::fprintf(stderr, "netfail: %s\n", p.error().to_string().c_str());
        return usage();
      }
      *pf.out = *p;
    }
  }
  if (const auto v = args.value("--resets")) {
    std::uint64_t n = 0;
    if (!parse_number("--resets", *v, n)) return usage();
    options.faults.tcp_resets = static_cast<std::uint32_t>(n);
  }
  if (const auto v = args.value("--seed")) {
    if (!parse_number("--seed", *v, options.faults.seed)) return usage();
  }

  io::Bundle bundle;
  if (!load_bundle(*dir_arg, bundle)) return 1;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point started = Clock::now();
  const auto stats = net::replay_capture(bundle.collector.lines(),
                                         bundle.lsp_records, options);
  if (!stats) {
    std::fprintf(stderr, "netfail: replay failed: %s\n",
                 stats.error().to_string().c_str());
    return 1;
  }
  const double secs =
      static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - started)
                              .count()) /
      1e6;
  const std::uint64_t total = stats->syslog_sent + stats->lsp_frames_sent;
  std::printf(
      "replayed %llu datagrams + %llu LSP frames in %.2f s (%.0f msgs/s)\n"
      "injected: %llu lost, %llu duplicated, %llu reordered, %llu TCP "
      "resets (%llu reconnects)\n",
      static_cast<unsigned long long>(stats->syslog_sent),
      static_cast<unsigned long long>(stats->lsp_frames_sent), secs,
      secs > 0 ? static_cast<double>(total) / secs : 0.0,
      static_cast<unsigned long long>(stats->syslog_lost),
      static_cast<unsigned long long>(stats->syslog_duplicated),
      static_cast<unsigned long long>(stats->syslog_reordered),
      static_cast<unsigned long long>(stats->tcp_resets),
      static_cast<unsigned long long>(stats->reconnects));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "simulate") == 0) return cmd_simulate(argc, argv);
  if (std::strcmp(argv[1], "analyze") == 0) return cmd_analyze(argc, argv);
  if (std::strcmp(argv[1], "stream") == 0) return cmd_stream(argc, argv);
  if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
  if (std::strcmp(argv[1], "export") == 0) return cmd_export(argc, argv);
  if (std::strcmp(argv[1], "replay") == 0) return cmd_replay(argc, argv);
  return usage();
}
