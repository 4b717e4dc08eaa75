#include "src/analysis/scenario_cache.hpp"

#include "src/common/metrics.hpp"

namespace netfail::analysis {

ScenarioCache& ScenarioCache::global() {
  static ScenarioCache* cache = new ScenarioCache;  // netfail-lint: allow(naked-new) reachable, never torn down
  return *cache;
}

template <typename Key, typename T, typename ComputeFn>
std::shared_ptr<const T> ScenarioCache::lookup(
    std::vector<Entry<Key, T>>& table, const Key& key,
    const ComputeFn& compute) {
  std::shared_ptr<Slot<T>> slot;
  {
    sync::MutexLock lock(mu_);
    for (const Entry<Key, T>& e : table) {
      if (e.key == key) {
        slot = e.slot;
        break;
      }
    }
    if (!slot) {
      slot = std::make_shared<Slot<T>>();
      table.push_back(Entry<Key, T>{key, slot});
    }
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
    const sim::ScenarioParams& params) {
  return lookup(captures_, params, [&] { return run_capture(params); });
}

std::shared_ptr<const PipelineResult> ScenarioCache::pipeline(
    const PipelineOptions& options) {
  return lookup(pipelines_, options, [&] {
    // Copy the shared capture: the result keeps its own simulation.
    return run_pipeline(*capture(options.scenario), options);
  });
}

void ScenarioCache::clear() {
  sync::MutexLock lock(mu_);
  captures_.clear();
  pipelines_.clear();
}

}  // namespace netfail::analysis
