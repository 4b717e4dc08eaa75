// Lightweight in-process metrics: named counters and fixed-bucket
// histograms, zero dependencies.
//
// The registry is the observability spine of the streaming path (and is
// threaded through the extractors and collector): components grab a counter
// once by name and bump it on the hot path; a snapshot renders every metric
// as text or JSON. Values are cumulative since process start (or the last
// reset()); names are dotted paths like "stream.events.lsp".
//
// Counters and histograms use relaxed atomics so the streaming shards, the
// network threads and the batch pipeline can share one registry without UB;
// the registry itself locks only on first lookup. Histogram snapshots taken
// while writers are active are per-field consistent (each load is atomic)
// but not cross-field consistent — fine for observability, not for
// invariants.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace netfail::metrics {

/// A monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time signed level (queue depth, active connections): unlike a
/// Counter it goes both ways, and a snapshot shows the *current* level, not
/// a cumulative total. All operations are relaxed atomics, so producers and
/// a consumer on different threads can track one level without a lock.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// set(max(current, v)), for high-water marks shared across threads.
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A histogram with fixed bucket upper bounds chosen at creation. Buckets
/// are *not* cumulative: counts_[i] holds observations v with
/// bounds_[i-1] < v <= bounds_[i]; one final overflow bucket catches the
/// rest. Also tracks count/sum/min/max for cheap summary lines.
///
/// observe() is safe to call concurrently (bounds are immutable after
/// construction; every mutable field is atomic). Not copyable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
  double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_count(i) for i in [0, bounds().size()]; the last index is the
  /// overflow bucket (v > bounds().back()).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> bounds_;                    // sorted ascending
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};  // +inf sentinel while empty
  std::atomic<double> max_{0};  // -inf sentinel while empty
};

/// Common bucket layouts.
std::vector<double> exponential_bounds(double first, double factor, std::size_t n);

/// Named metric registry. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime, so hot paths should look up once
/// and keep the reference.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Bounds are fixed on first creation; later calls with the same name
  /// return the existing histogram and ignore `upper_bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Flat text dump, one metric per line, sorted by name.
  std::string render_text() const;
  /// JSON object {"counters": {...}, "histograms": {...}}.
  std::string render_json() const;

  /// Zero every value, keeping the registered names (tests use this).
  void reset();

 private:
  // The mutex guards the maps only; the Counter/Gauge/Histogram objects the
  // map values point to are internally atomic and are mutated lock-free by
  // their holders after lookup.
  mutable sync::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      NETFAIL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      NETFAIL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      NETFAIL_GUARDED_BY(mu_);
};

/// The process-wide registry the library components report into.
Registry& global();

}  // namespace netfail::metrics
