// nfbench — the end-to-end benchmark's in-process half.
//
// run.py drives the `netfail` CLI as separate processes for the verb
// timings; this binary does what needs the library in-process: it
// generates the workload bundles, times set-up, computes the reference
// outputs the verbs are checked against, re-runs each verb's sequence of
// public calls under a span tracer, and runs the sharded serve workload.
// Every layer is timed from outside, around calls into its public API;
// nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/interval_set.hpp"
#include "src/common/time.hpp"
#include "src/config/census.hpp"
#include "src/isis/listener.hpp"
#include "src/syslog/collector.hpp"
#include "src/tickets/tickets.hpp"

namespace netfail::stream {
class StreamEngine;
struct ShardRun;
}  // namespace netfail::stream

namespace nfbench {

// ---- clocks and counters ----------------------------------------------------

std::int64_t now_ns();       // steady clock
double thread_cpu_s();       // CPU time of the calling thread
double process_cpu_s();      // CPU time of the whole process

/// Allocations made through global operator new: process-wide, and by the
/// calling thread only (alloc.cpp replaces the global operators).
std::uint64_t allocs_total();
std::uint64_t allocs_this_thread();

// ---- spans ------------------------------------------------------------------

/// One timed call. `run` groups the spans of one root invocation; `parent`
/// is the id of the enclosing span, -1 for a root.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  int run = 0;
};

/// Spans are kept in memory and written out once, when the run ends. A
/// disabled tracer records nothing and costs one branch per call, so the
/// same code path serves the traced and the untraced timing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Open a root span for a new run; returns its span id (-1 if disabled).
  int begin_run(const std::string& name);
  int open(const std::string& name);
  void close(int id);
  /// A count or accumulated time measured at a span boundary of the
  /// current run.
  void count(const std::string& name, double value);

  std::string to_json() const;

 private:
  bool enabled_;
  int run_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::pair<int, std::pair<std::string, double>>> counts_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- bundles ----------------------------------------------------------------

/// A capture bundle loaded the way the CLI loads one.
struct Bundle {
  netfail::TimeRange period;
  netfail::LinkCensus census;
  netfail::syslog::Collector collector;
  std::vector<netfail::isis::LspRecord> records;
  netfail::TicketStore tickets;
  netfail::IntervalSet gaps;
};

/// Read META, configs, syslog, LSP capture, tickets and gaps, then mine the
/// census; one span per call. Returns false with `err` set on a bad bundle.
bool load_bundle(const std::string& dir, Bundle& out, Tracer& t,
                 std::string& err);

/// Simulate workload `workload` ("cenic" or "busy") for `seed` and write
/// the bundle to `dir` with the library's io writers.
bool write_bundle(const std::string& workload, std::uint64_t seed,
                  const std::string& dir, std::string& err);

// ---- verb sequences (verbs.cpp) ---------------------------------------------

/// Batch reconstruction counts the stream verb's summary lines must match.
struct ReconCounts {
  std::uint64_t failures = 0;
  std::uint64_t flap_episodes = 0;
  std::uint64_t double_downs = 0;
  std::uint64_t double_ups = 0;
  std::uint64_t merged = 0;
  std::uint64_t unterminated = 0;
};

/// Unsanitized batch reconstructions (IS-IS, syslog) with the stream
/// verb's default options.
std::pair<ReconCounts, ReconCounts> batch_counts(const Bundle& b);

/// `netfail analyze`'s calls after loading: extract, reconstruct,
/// sanitize, flaps, match, stats, render. Returns exactly what the verb
/// prints on stdout.
std::string analyze_sequence(const Bundle& b, Tracer& t);
/// `netfail export --anonymize`'s calls after loading, up to render_export.
std::string export_sequence(const Bundle& b, Tracer& t);
/// `netfail stream`'s EventMux + feed loop + finish. With the tracer on,
/// each feed call is timed and the totals recorded as counts.
void stream_sequence(const Bundle& b, Tracer& t, bool detect);
/// The Table 7 customer-isolation path (no verb renders it yet).
std::string table7_sequence(const Bundle& b, Tracer& t);

/// Send an engine's released failures, ambiguous segments and flap
/// episodes into `run`, the shape merge_shard_runs folds.
void collect_into(netfail::stream::StreamEngine& e,
                  netfail::stream::ShardRun& run);

/// Serial StreamEngine over the bundle with the serve workload's options,
/// merged and rendered like the sharded run.
std::string serial_digest(const Bundle& b);

// ---- serve (serve.cpp) ------------------------------------------------------

/// A merged-run digest with its alert lines sorted, the form in which the
/// sharded serve run and the serial engine are compared (see serve.cpp).
std::string alerts_sorted(const std::string& digest);

/// Run serve passes over `b` (2 shards, replay at 100k msgs/s, GET /links
/// at 50/s) until 1000 queries are in; each pass's merged digest is
/// compared with `expect_digest`, and its snapshot is saved in `work_dir`.
/// Returns the result object as JSON.
std::string serve_workload(const Bundle& b, const std::string& expect_digest,
                           const std::string& work_dir);

/// The serve workload's gateway + HTTP start until both listen, then stop;
/// seconds elapsed, or -1 if either failed to start.
double serve_start_seconds(const Bundle& b);

// ---- small JSON writer --------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::uint64_t v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_quote(const std::string& s);
std::string json_array(const std::vector<double>& v);

}  // namespace nfbench
