// ScenarioCache — process-wide, thread-safe memoization of the expensive
// pipeline front half (simulation + census mining) and of whole pipeline
// results, keyed on the parameter values themselves.
//
// The table benches, the differential tests, and the per-seed sweeps all
// materialize the *identical* CENIC scenario; before this cache each call
// site re-simulated it from scratch. Captures are shared immutably
// (shared_ptr<const>), so a dozen readers cost one simulation. Requests for
// different keys simulate concurrently; two concurrent requests for the
// same key serialize on a per-entry lock and share one computation.
//
// Entries are found by comparing the full parameter structs with their
// defaulted operator==, so a field added to any of them takes part in the
// key with no extra code. A process touches a handful of scenarios, so the
// tables are scanned linearly.
#pragma once

#include <memory>
#include <vector>

#include "src/analysis/pipeline.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace netfail::analysis {

class ScenarioCache {
 public:
  static ScenarioCache& global();

  /// Simulation + census for these parameters, computed at most once.
  std::shared_ptr<const PipelineCapture> capture(
      const sim::ScenarioParams& params);

  /// Full pipeline result, computed at most once per distinct options
  /// value; the underlying capture is shared with capture() callers.
  std::shared_ptr<const PipelineResult> pipeline(
      const PipelineOptions& options = {});

  /// Drop every cached entry (tests use this to bound memory).
  void clear();

 private:
  template <typename T>
  struct Slot {
    sync::Mutex mu;  // held while computing, so duplicates wait, not re-run
    std::shared_ptr<const T> value NETFAIL_GUARDED_BY(mu);
  };

  template <typename Key, typename T>
  struct Entry {
    Key key;
    std::shared_ptr<Slot<T>> slot;
  };

  template <typename Key, typename T, typename ComputeFn>
  std::shared_ptr<const T> lookup(std::vector<Entry<Key, T>>& table,
                                  const Key& key, const ComputeFn& compute);

  // Lock order: mu_ (table lookup) strictly before any Slot::mu (compute);
  // mu_ is never held across a compute, so distinct keys never serialize.
  sync::Mutex mu_;
  std::vector<Entry<sim::ScenarioParams, PipelineCapture>> captures_
      NETFAIL_GUARDED_BY(mu_);
  std::vector<Entry<PipelineOptions, PipelineResult>> pipelines_
      NETFAIL_GUARDED_BY(mu_);
};

}  // namespace netfail::analysis
