#include "src/sim/network_sim.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/strfmt.hpp"
#include "src/isis/lsp_builder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/schedule.hpp"
#include "src/syslog/message.hpp"

namespace netfail::sim {
namespace {

/// Everything the simulation tracks per router.
struct RouterSim {
  isis::LspOriginator originator;
  isis::LspThrottle throttle;
  Duration clock_skew;
  unsigned syslog_seq = 0;

  RouterSim(OsiSystemId id, Symbol hostname, Duration min_interval,
            Duration skew)
      : originator(id, hostname.str()), throttle(min_interval),
        clock_skew(skew) {}
};

class Simulation {
 public:
  Simulation(const ScenarioParams& params, Topology topo)
      : params_(params),
        rng_(params.seed),
        result_{std::move(topo), {}, {}, {}, {}, 0, 0, 0},
        channel_(params.channel, rng_.next_u64()) {}

  SimulationResult run();

 private:
  const Topology& topo() const { return result_.topology; }

  // ---- setup ---------------------------------------------------------------
  void setup_routers();
  void setup_listener_gaps();
  void setup_reporter_quality();
  void setup_blackouts();
  void schedule_initial_floods();
  void schedule_gap_resyncs();
  void schedule_failure(const TrueFailure& f);
  void schedule_spurious_ups(
      const std::map<LinkId, IntervalSet>& adjacency_down);

  // ---- event helpers ---------------------------------------------------------
  void isis_change(RouterId router, TimePoint t,
                   std::function<void(isis::LspOriginator&)> mutation);
  void flood_lsp(RouterId router, TimePoint t);
  void send_syslog(RouterId reporter, TimePoint t, syslog::MessageType type,
                   LinkDirection dir, LinkId link, std::string reason);

  Duration jitter(Duration max) {
    return Duration::millis(rng_.uniform_int(0, max.total_millis()));
  }

  const ScenarioParams params_;
  Rng rng_;
  SimulationResult result_;
  syslog::LossyChannel channel_;
  EventQueue queue_;
  std::vector<std::unique_ptr<RouterSim>> routers_;
  std::string syslog_line_;  // reused render buffer
  bool suppress_syslog_ = false;
};

void Simulation::setup_routers() {
  routers_.reserve(topo().router_count());
  for (const Router& r : topo().routers()) {
    const Duration skew = Duration::millis(
        rng_.uniform_int(-params_.clock_skew_max.total_millis(),
                         params_.clock_skew_max.total_millis()));
    routers_.push_back(std::make_unique<RouterSim>(
        r.system_id, r.hostname, params_.lsp_min_interval, skew));
    // Loopback: always advertised, never withdrawn.
    routers_.back()->originator.prefix_up(Ipv4Prefix{r.loopback, 32}, 0);
  }
  // All links start up: both ends advertise the adjacency and the /31.
  for (const Link& l : topo().links()) {
    const Router& ra = topo().router(l.router_a);
    const Router& rb = topo().router(l.router_b);
    routers_[l.router_a.index()]->originator.adjacency_up(rb.system_id, l.metric);
    routers_[l.router_b.index()]->originator.adjacency_up(ra.system_id, l.metric);
    routers_[l.router_a.index()]->originator.prefix_up(l.subnet, l.metric);
    routers_[l.router_b.index()]->originator.prefix_up(l.subnet, l.metric);
  }
}

void Simulation::setup_listener_gaps() {
  IntervalSet gaps;
  for (int i = 0; i < params_.listener_gap_count; ++i) {
    const double width_s = rng_.lognormal(
        std::log(params_.listener_gap_median.seconds_f()),
        params_.listener_gap_sigma);
    const std::int64_t span =
        (params_.period.end - params_.period.begin).total_millis();
    const TimePoint start =
        params_.period.begin + Duration::millis(rng_.uniform_int(
                                   span / 20, span - span / 20));
    gaps.add(TimeRange{start, start + Duration::from_seconds_f(width_s)});
  }
  result_.listener.set_offline_windows(gaps);
  result_.truth.set_listener_gaps(gaps);
}

void Simulation::setup_reporter_quality() {
  for (const Router& r : topo().routers()) {
    if (r.cls == RouterClass::kCpe) {
      channel_.set_extra_loss(r.hostname, params_.cpe_extra_loss);
    }
  }
}

void Simulation::setup_blackouts() {
  // Pick distinct routers for logging blackouts.
  std::vector<std::size_t> indices(topo().router_count());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng_.shuffle(indices);
  const int count =
      std::min<int>(params_.blackout_router_count,
                    static_cast<int>(indices.size()));
  for (int i = 0; i < count; ++i) {
    const Router& r = topo().routers()[indices[static_cast<std::size_t>(i)]];
    const double width_s = rng_.lognormal(
        std::log(params_.blackout_median.seconds_f()), params_.blackout_sigma);
    const std::int64_t span =
        (params_.period.end - params_.period.begin).total_millis();
    const TimePoint start =
        params_.period.begin + Duration::millis(rng_.uniform_int(0, span));
    const TimeRange window{start,
                           std::min(start + Duration::from_seconds_f(width_s),
                                    params_.period.end)};
    if (window.empty()) continue;
    channel_.add_blackout(r.hostname, window);
    result_.truth.add_syslog_blackout(r.hostname.str(), window);
  }
}

void Simulation::schedule_initial_floods() {
  for (const Router& r : topo().routers()) {
    const RouterId id = r.id;
    queue_.push(params_.period.begin + jitter(Duration::seconds(60)),
                [this, id](TimePoint t) { flood_lsp(id, t); });
  }
}

void Simulation::schedule_gap_resyncs() {
  for (const TimeRange& gap : result_.truth.listener_gaps().ranges()) {
    for (const Router& r : topo().routers()) {
      const RouterId id = r.id;
      const TimePoint at =
          gap.end + Duration::seconds(1) + jitter(Duration::seconds(90));
      if (at >= params_.period.end) continue;
      queue_.push(at, [this, id](TimePoint t) { flood_lsp(id, t); });
    }
  }
}

void Simulation::isis_change(
    RouterId router, TimePoint t,
    std::function<void(isis::LspOriginator&)> mutation) {
  if (t >= params_.period.end) return;
  queue_.push(t, [this, router, mutation = std::move(mutation)](TimePoint now) {
    RouterSim& rs = *routers_[router.index()];
    mutation(rs.originator);
    if (const auto gen = rs.throttle.on_change(now)) {
      queue_.push(*gen, [this, router](TimePoint gt) {
        routers_[router.index()]->throttle.on_generated(gt);
        flood_lsp(router, gt);
      });
    }
  });
}

void Simulation::flood_lsp(RouterId router, TimePoint t) {
  const isis::Lsp lsp = routers_[router.index()]->originator.build();
  std::vector<std::uint8_t> bytes = lsp.encode();
  const TimePoint arrival =
      t + params_.flood_delay_min +
      jitter(params_.flood_delay_max - params_.flood_delay_min);
  queue_.push(arrival, [this, bytes = std::move(bytes)](TimePoint at) {
    result_.listener.deliver(at, bytes);
  });
}

void Simulation::send_syslog(RouterId reporter, TimePoint t,
                             syslog::MessageType type, LinkDirection dir,
                             LinkId link, std::string reason) {
  if (suppress_syslog_) return;
  if (t >= params_.period.end || t < params_.period.begin) return;
  queue_.push(t, [this, reporter, type, dir, link,
                  reason = std::move(reason)](TimePoint now) {
    RouterSim& rs = *routers_[reporter.index()];
    const Router& r = topo().router(reporter);
    const Link& l = topo().link(link);
    const bool is_a = l.router_a == reporter;

    syslog::Message m;
    m.timestamp = now + rs.clock_skew;
    m.reporter = r.hostname;
    m.dialect = r.os;
    m.type = type;
    m.dir = dir;
    m.interface = topo().interface(is_a ? l.if_a : l.if_b).name;
    if (type == syslog::MessageType::kIsisAdjChange) {
      m.neighbor = topo().router(is_a ? l.router_b : l.router_a).hostname;
      m.reason = reason;
    }
    // Render into the reused buffer: only lines that actually transmit pay
    // for a heap copy (into the delivery closure); drops allocate nothing.
    m.render_to(syslog_line_, ++rs.syslog_seq);
    if (channel_.transmit(r.hostname, now)) {
      const TimePoint arrival =
          now + Duration::millis(1) + jitter(params_.syslog_net_delay_max);
      queue_.push(arrival, [this, line = syslog_line_](TimePoint at) {
        result_.collector.receive({at, line});
      });
    }
  });
}

void Simulation::schedule_failure(const TrueFailure& f) {
  const Link& l = topo().link(f.link);
  const RouterId ends[2] = {l.router_a, l.router_b};
  // Maintenance silence: the whole failure produces no syslog (LSPs still
  // flow); restore the flag when this failure's events are all scheduled.
  suppress_syslog_ = f.syslog_silent;

  using syslog::MessageType;
  switch (f.cls) {
    case FailureClass::kMediaFailure:
    case FailureClass::kMediaBlip: {
      // Physical messages + per-end /31 withdrawal from both ends. Bounces
      // shorter than the carrier-delay never reach the routing layer: the
      // interface logs, but the /31 stays advertised (paper Table 2's
      // media-vs-IP gap).
      const bool routing_notified =
          f.media_down.duration() >= params_.carrier_delay;
      for (const RouterId end : ends) {
        const Duration down_j = jitter(Duration::millis(500));
        const Duration up_j = jitter(Duration::millis(500));
        send_syslog(end, f.media_down.begin + down_j, MessageType::kLinkUpDown,
                    LinkDirection::kDown, f.link, "");
        send_syslog(end, f.media_down.begin + down_j + jitter(Duration::millis(300)),
                    MessageType::kLineProtoUpDown, LinkDirection::kDown, f.link,
                    "");
        send_syslog(end, f.media_down.end + up_j, MessageType::kLinkUpDown,
                    LinkDirection::kUp, f.link, "");
        send_syslog(end, f.media_down.end + up_j + jitter(Duration::millis(300)),
                    MessageType::kLineProtoUpDown, LinkDirection::kUp, f.link, "");
        if (!routing_notified) continue;
        const Ipv4Prefix subnet = l.subnet;
        isis_change(end, f.media_down.begin + down_j,
                    [subnet](isis::LspOriginator& o) { o.prefix_down(subnet); });
        const std::uint32_t metric = l.metric;
        isis_change(end, f.media_down.end + up_j,
                    [subnet, metric](isis::LspOriginator& o) {
                      o.prefix_up(subnet, metric);
                    });
      }
      if (f.cls == FailureClass::kMediaBlip) break;
      [[fallthrough]];
    }
    case FailureClass::kProtocolFailure: {
      // Adjacency messages + TLV-22 withdrawal from both ends.
      const char* down_reason = f.cls == FailureClass::kMediaFailure
                                    ? "interface state down"
                                    : "hold time expired";
      for (const RouterId end : ends) {
        const RouterId peer = topo().link_peer(f.link, end);
        const OsiSystemId peer_id = topo().router(peer).system_id;
        const std::uint32_t metric = l.metric;
        const Duration down_j = jitter(Duration::millis(800));
        const Duration up_j = jitter(Duration::millis(800));
        send_syslog(end, f.adjacency_down.begin + down_j,
                    MessageType::kIsisAdjChange, LinkDirection::kDown, f.link,
                    down_reason);
        send_syslog(end, f.adjacency_down.end + up_j,
                    MessageType::kIsisAdjChange, LinkDirection::kUp, f.link,
                    "new adjacency");
        isis_change(end, f.adjacency_down.begin + down_j,
                    [peer_id, metric](isis::LspOriginator& o) {
                      o.adjacency_down(peer_id, metric);
                    });
        isis_change(end, f.adjacency_down.end + up_j,
                    [peer_id, metric](isis::LspOriginator& o) {
                      o.adjacency_up(peer_id, metric);
                    });
      }
      // Spurious mid-failure "Down" retransmission (sect. 4.3): one end
      // reminds the collector of the ongoing failure, typically shortly
      // after the original report (a delayed re-announcement, not a random
      // point hours in) — which is why 99% of the paper's spurious downs
      // re-report the same failure.
      if (f.adjacency_down.duration() >= params_.spurious_min_duration &&
          rng_.bernoulli(params_.spurious_down_prob)) {
        const RouterId end = ends[rng_.uniform_int(0, 1)];
        const std::int64_t span = f.adjacency_down.duration().total_millis();
        std::int64_t offset_ms;
        if (rng_.bernoulli(params_.spurious_down_early_prob)) {
          offset_ms = static_cast<std::int64_t>(
              rng_.lognormal(std::log(60.0), 1.5) * 1000.0);
        } else {
          offset_ms = rng_.uniform_int(span / 10, span * 9 / 10);
        }
        const TimePoint at =
            f.adjacency_down.begin +
            Duration::millis(std::min(offset_ms, span * 9 / 10));
        send_syslog(end, at, MessageType::kIsisAdjChange, LinkDirection::kDown,
                    f.link, down_reason);
      }
      // Ticket for long outages.
      if (f.ticketed) {
        result_.tickets.file(
            f.link_name, f.adjacency_down,
            strformat("outage on %s (%s)", f.link_name.c_str(),
                      f.cls == FailureClass::kMediaFailure ? "fiber/media"
                                                           : "protocol"));
      }
      break;
    }
    case FailureClass::kPseudoFailure: {
      // Syslog-only: one end logs a reset pair; no LSP is generated.
      const RouterId end = ends[rng_.uniform_int(0, 1)];
      send_syslog(end, f.adjacency_down.begin, MessageType::kIsisAdjChange,
                  LinkDirection::kDown, f.link, "adjacency reset");
      send_syslog(end, f.adjacency_down.end, MessageType::kIsisAdjChange,
                  LinkDirection::kUp, f.link, "new adjacency");
      break;
    }
  }
  suppress_syslog_ = false;
}

void Simulation::schedule_spurious_ups(
    const std::map<LinkId, IntervalSet>& adjacency_down) {
  const double years =
      (params_.period.end - params_.period.begin).seconds_f() /
      (365.25 * 86400.0);
  for (const Link& l : topo().links()) {
    const std::uint32_t n =
        rng_.poisson(params_.spurious_up_rate_per_year * years);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int64_t span =
          (params_.period.end - params_.period.begin).total_millis();
      const TimePoint at =
          params_.period.begin + Duration::millis(rng_.uniform_int(0, span - 1));
      // Only meaningful while the link is actually up (the common case).
      const auto it = adjacency_down.find(l.id);
      if (it != adjacency_down.end() && it->second.contains(at)) continue;
      const RouterId end = rng_.bernoulli(0.5) ? l.router_a : l.router_b;
      send_syslog(end, at, syslog::MessageType::kIsisAdjChange,
                  LinkDirection::kUp, l.id, "new adjacency");
    }
  }
}

SimulationResult Simulation::run() {
  setup_routers();
  setup_listener_gaps();
  setup_reporter_quality();
  setup_blackouts();
  schedule_initial_floods();
  schedule_gap_resyncs();

  const std::vector<TrueFailure> schedule =
      generate_schedule(params_, topo(), rng_);
  std::map<LinkId, IntervalSet> adjacency_down;
  for (const TrueFailure& f : schedule) {
    schedule_failure(f);
    if (!f.adjacency_down.empty() && f.cls != FailureClass::kPseudoFailure) {
      adjacency_down[f.link].add(f.adjacency_down);
    }
    result_.truth.add_failure(f);
  }
  schedule_spurious_ups(adjacency_down);

  result_.events_processed = queue_.run();

  // Periodic refresh floods are accounted analytically (DESIGN.md): they
  // carry no state change, so only their count matters (Table 1).
  const Duration online = result_.truth.listener_gaps().complement_within(
      params_.period).total();
  const std::uint64_t per_router = static_cast<std::uint64_t>(
      online.total_millis() / params_.lsp_refresh_interval.total_millis());
  result_.listener.add_virtual_refreshes(per_router * topo().router_count());

  result_.syslog_sent = channel_.sent_count();
  result_.syslog_lost = channel_.lost_count();
  return result_;
}

}  // namespace

SimulationResult run_simulation(const ScenarioParams& params, Topology topo) {
  Simulation sim(params, std::move(topo));
  return sim.run();
}

SimulationResult run_simulation(const ScenarioParams& params) {
  return run_simulation(params, generate_topology(params.topology));
}

}  // namespace netfail::sim
