#include "src/analysis/scenario_cache.hpp"

#include <bit>

#include "src/common/metrics.hpp"

namespace netfail::analysis {
namespace {

/// FNV-1a over a canonical little-endian field serialization. Doubles hash
/// by bit pattern (scenario knobs are set, not computed, so -0.0/NaN
/// aliasing is not a concern in practice).
class FieldHasher {
 public:
  FieldHasher& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  FieldHasher& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  FieldHasher& i(int v) { return i64(v); }
  FieldHasher& d(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  FieldHasher& dur(Duration v) { return i64(v.total_millis()); }
  FieldHasher& t(TimePoint v) { return i64(v.unix_millis()); }
  FieldHasher& range(TimeRange v) { return t(v.begin).t(v.end); }
  FieldHasher& str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  FieldHasher& mixture(const sim::DurationMixture& m) {
    return d(m.body_median_s)
        .d(m.body_sigma)
        .d(m.tail_prob)
        .d(m.tail_median_s)
        .d(m.tail_sigma)
        .d(m.min_s);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

void hash_scenario(FieldHasher& h, const sim::ScenarioParams& p) {
  h.range(p.period).u64(p.seed);

  const TopologyParams& t = p.topology;
  h.i(t.core_routers)
      .i(t.cpe_routers)
      .i(t.customers)
      .i(t.core_links)
      .i(t.cpe_links)
      .i(t.multilink_pairs_core)
      .i(t.multilink_pairs_cpe)
      .u64(t.seed);

  h.d(p.core_rate_median)
      .d(p.core_rate_sigma)
      .d(p.cpe_rate_median)
      .d(p.cpe_rate_sigma)
      .d(p.core_flap_episode_prob)
      .d(p.cpe_flap_episode_prob)
      .d(p.flap_extra_mean)
      .d(p.flap_size_sigma)
      .dur(p.flap_gap_min)
      .dur(p.flap_gap_median)
      .d(p.flap_gap_sigma)
      .mixture(p.flap_duration)
      .mixture(p.core_duration)
      .mixture(p.cpe_duration)
      .d(p.media_failure_prob)
      .d(p.blip_rate_per_year)
      .d(p.blip_median_s)
      .d(p.blip_sigma)
      .d(p.blip_max_s)
      .dur(p.carrier_delay)
      .d(p.sole_uplink_rate_factor)
      .d(p.sole_uplink_flap_factor)
      .d(p.site_outage_rate_per_year)
      .dur(p.site_outage_median)
      .d(p.site_outage_sigma)
      .d(p.reset_after_failure_prob)
      .d(p.handshake_abort_prob)
      .d(p.spurious_down_prob)
      .d(p.spurious_down_early_prob)
      .dur(p.spurious_min_duration)
      .d(p.spurious_up_rate_per_year)
      .dur(p.lsp_min_interval)
      .dur(p.lsp_refresh_interval)
      .dur(p.flood_delay_min)
      .dur(p.flood_delay_max)
      .dur(p.adjacency_detect_max)
      .dur(p.handshake_min)
      .dur(p.handshake_max);

  h.d(p.channel.base_loss)
      .d(p.channel.run_onset_per_message)
      .d(p.channel.max_run_onset)
      .dur(p.channel.burst_window)
      .dur(p.channel.run_mean);

  h.d(p.cpe_extra_loss)
      .dur(p.syslog_net_delay_max)
      .dur(p.clock_skew_max)
      .i(p.blackout_router_count)
      .dur(p.blackout_median)
      .d(p.blackout_sigma)
      .i(p.listener_gap_count)
      .dur(p.listener_gap_median)
      .d(p.listener_gap_sigma)
      .dur(p.ticket_threshold)
      .d(p.maintenance_silent_prob);
}

void hash_capture(FieldHasher& h, const sim::ScenarioParams& params,
                  const ArchiveParams& archive, const MinerParams& miner) {
  hash_scenario(h, params);
  h.dur(archive.mean_revision_interval).u64(archive.seed);
  h.dur(miner.lifetime_slack).str(miner.cpe_host_token);
}

}  // namespace

std::uint64_t scenario_hash(const sim::ScenarioParams& params) {
  FieldHasher h;
  hash_scenario(h, params);
  return h.value();
}

std::uint64_t capture_hash(const sim::ScenarioParams& params,
                           const ArchiveParams& archive,
                           const MinerParams& miner) {
  FieldHasher h;
  hash_capture(h, params, archive, miner);
  return h.value();
}

std::uint64_t pipeline_options_hash(const PipelineOptions& options) {
  FieldHasher h;
  hash_capture(h, options.scenario, options.archive, options.miner);
  h.dur(options.reconstruct.merge_window)
      .i(static_cast<int>(options.reconstruct.policy))
      .range(options.reconstruct.period)
      .dur(options.sanitize.long_failure_threshold)
      .d(options.sanitize.ticket_overlap_fraction)
      .dur(options.flaps.max_gap)
      .u64(options.flaps.min_failures);
  return h.value();
}

ScenarioCache& ScenarioCache::global() {
  static ScenarioCache* cache = new ScenarioCache;  // netfail-lint: allow(naked-new) reachable, never torn down
  return *cache;
}

template <typename T, typename ComputeFn>
std::shared_ptr<const T> ScenarioCache::lookup(
    std::unordered_map<std::uint64_t, std::shared_ptr<Slot<T>>>& table,
    std::uint64_t key, const ComputeFn& compute) {
  std::shared_ptr<Slot<T>> slot;
  {
    sync::MutexLock lock(mu_);
    std::shared_ptr<Slot<T>>& entry = table[key];
    if (!entry) entry = std::make_shared<Slot<T>>();
    slot = entry;
  }
  // Compute under the slot lock: a concurrent request for the same key
  // waits here and then reuses the value; other keys are unaffected.
  sync::MutexLock lock(slot->mu);
  if (slot->value) {
    metrics::global().counter("cache.scenario.hits").inc();
    return slot->value;
  }
  metrics::global().counter("cache.scenario.misses").inc();
  slot->value = std::make_shared<const T>(compute());
  return slot->value;
}

std::shared_ptr<const PipelineCapture> ScenarioCache::capture(
    const sim::ScenarioParams& params, const ArchiveParams& archive,
    const MinerParams& miner) {
  return lookup(captures_, capture_hash(params, archive, miner),
                [&] { return run_capture(params, archive, miner); });
}

std::shared_ptr<const PipelineResult> ScenarioCache::pipeline(
    const PipelineOptions& options) {
  return lookup(pipelines_, pipeline_options_hash(options), [&] {
    // Copy the shared capture: the result keeps its own simulation.
    return run_pipeline(*capture(options.scenario, options.archive,
                                 options.miner),
                        options);
  });
}

void ScenarioCache::clear() {
  sync::MutexLock lock(mu_);
  captures_.clear();
  pipelines_.clear();
}

std::uint64_t ScenarioCache::hits() const {
  return metrics::global().counter("cache.scenario.hits").value();
}

std::uint64_t ScenarioCache::misses() const {
  return metrics::global().counter("cache.scenario.misses").value();
}

}  // namespace netfail::analysis
