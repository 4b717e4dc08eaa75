#include "src/svc/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "src/common/strfmt.hpp"
#include "src/common/sync.hpp"
#include "src/stream/sharded.hpp"
#include "src/svc/binio.hpp"

namespace netfail::svc {
namespace {

/// File-local id of the invalid symbol.
constexpr std::uint32_t kInvalidLocal = 0xffffffffu;
/// Every signed 64-bit field (times and durations in ms, window indices)
/// stays within ±2^52, about 140,000 years of milliseconds, so the sums and
/// differences the engine takes of them cannot overflow.
constexpr std::int64_t kMaxSigned = std::int64_t{1} << 52;
/// Every int field is an LSP count (adjacencies to a neighbor, a pair's
/// adjacencies, advertisers of a /31): never negative, and capped far above
/// what a capture reaches so that PairFold, which replays a count change
/// one step at a time, stays cheap.
constexpr int kMaxCount = 65535;

template <typename T>
concept Wide = std::unsigned_integral<T> && sizeof(T) == 8;

/// One half of a packed (high << 32 | low) u64 key.
template <typename T>
T half(std::uint64_t bits) {
  const auto v = static_cast<std::uint32_t>(bits);
  if constexpr (std::is_same_v<T, LinkId>) {
    return LinkId(v);
  } else {
    return Symbol::from_id(v);
  }
}

/// The writer sink: the walks hand it `const` engine state, and the C++
/// type of each field fixes its wire width here, once. Symbols become dense
/// file-local ids in first-use order, shared by every section of a file.
class Writer {
 public:
  template <typename... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }

  void shard(std::uint32_t v) { w_.u32(v); }

  /// u32 count, then each element.
  template <typename Vec, typename Walk>
  void seq(const Vec& v, Walk&& walk) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) walk(e);
  }

  /// u32 count, then each (key, value) in the order of `by(key)`, so the
  /// bytes are a pure function of state, not of hash seeds or intern order.
  template <typename Map, typename By, typename Walk>
  void map(const Map& m, By by, Walk&& walk) {
    std::vector<const typename Map::value_type*> sorted;
    for (const auto& e : m) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(), [&by](auto* a, auto* b) {
      return by(a->first) < by(b->first);
    });
    seq(sorted, [&walk](const auto* e) { walk(e->first, e->second); });
  }

  /// u32 count, then each key in the order of `by(key)`.
  template <typename Set, typename By>
  void set(const Set& s, By by) {
    std::vector<typename Set::value_type> sorted(s.begin(), s.end());
    std::sort(sorted.begin(), sorted.end(),
              [&by](auto a, auto b) { return by(a) < by(b); });
    seq(sorted, [this](const auto& e) { field(e); });
  }

  std::string take_section() { return w_.take(); }
  const std::vector<std::uint32_t>& symbol_order() const { return order_; }

 private:
  void field(bool v) { w_.u8(v ? 1 : 0); }
  void field(LinkDirection d) { w_.u8(static_cast<std::uint8_t>(d)); }
  void field(analysis::Source s) { w_.u8(static_cast<std::uint8_t>(s)); }
  void field(detect::AlertKind k) { w_.u8(static_cast<std::uint8_t>(k)); }
  void field(TimePoint t) { w_.i64(t.unix_millis()); }
  void field(Duration d) { w_.i64(d.total_millis()); }
  void field(LinkId link) { w_.u32(link.value()); }
  void field(std::uint32_t v) { w_.u32(v); }
  void field(Symbol s) {
    if (!s.valid()) return w_.u32(kInvalidLocal);
    const auto [it, added] = local_.try_emplace(
        s.value(), static_cast<std::uint32_t>(order_.size()));
    if (added) order_.push_back(s.value());
    w_.u32(it->second);
  }
  template <Wide T>
  void field(T v) {
    w_.u64(v);
  }
  void field(std::int64_t v) { w_.i64(v); }
  void field(int v) { w_.i64(v); }
  void field(double v) { w_.f64(v); }
  void field(const OsiSystemId& id) { w_.raw(id.bytes().data(), 6); }
  void field(const Ipv4Prefix& p) {
    w_.u32(p.network().value());
    w_.u8(static_cast<std::uint8_t>(p.length()));
  }

  ByteWriter w_;
  std::unordered_map<std::uint32_t, std::uint32_t> local_;  // global -> local
  std::vector<std::uint32_t> order_;  // global ids, local order
};

/// The reader sink: the walks hand it the scratch engine restore_shard
/// decodes into, and it checks each field by its type as it reads it. The
/// first failure is kept; after it, or once the section runs short, reads
/// go on harmlessly (counts read as zero) and the scratch is discarded.
class Reader {
 public:
  Reader(std::string_view section, const std::vector<Symbol>& symbols,
         std::size_t census_links)
      : r_(section), symbols_(symbols), census_links_(census_links) {}

  template <typename... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }

  /// The engine's own shard, which the section must name.
  void shard(std::uint32_t engine_shard) {
    const std::uint32_t v = r_.u32();
    if (r_.ok() && !error_ && v != engine_shard) {
      error_ = make_error(ErrorCode::kInvalidArgument,
                          strformat("snapshot section is for shard %u, engine "
                                    "is shard %u", v, engine_shard));
    }
  }

  template <typename Vec, typename Walk>
  void seq(Vec& v, Walk&& walk) {
    v.assign(count(), typename Vec::value_type{});
    for (auto& e : v) walk(e);
  }

  template <typename Map, typename By, typename Walk>
  void map(Map& m, By /*by*/, Walk&& walk) {
    m.clear();
    for (std::uint32_t n = count(); n > 0; --n) {
      std::pair<typename Map::key_type, typename Map::mapped_type> e{};
      walk(e.first, e.second);
      bad(!m.emplace(std::move(e)).second, "a repeated key");
    }
  }

  template <typename Set, typename By>
  void set(Set& s, By /*by*/) {
    s.clear();
    for (std::uint32_t n = count(); n > 0; --n) {
      typename Set::value_type e{};
      field(e);
      bad(!s.insert(e).second, "a repeated key");
    }
  }

  /// Records `what` as the error when `failed`; returns `failed`.
  bool bad(bool failed, const char* what) {
    if (failed && r_.ok() && !error_) {
      error_ = make_error(ErrorCode::kParseError,
                          std::string("snapshot section holds ") + what);
    }
    return failed;
  }

  Status status() const {
    if (error_) return *error_;
    if (!r_.ok()) {
      return make_error(ErrorCode::kTruncated, "snapshot section truncated");
    }
    if (!r_.exhausted()) {
      return make_error(ErrorCode::kParseError,
                        "snapshot section has trailing bytes");
    }
    return Status::ok_status();
  }

 private:
  /// `v` when `ok`; otherwise a zero value, with `what` recorded.
  template <typename T>
  T check(T v, bool ok, const char* what) {
    return bad(!ok, what) ? T{} : v;
  }

  void field(bool& v) { v = code(std::uint8_t{1}) != 0; }
  void field(LinkDirection& d) { d = code(LinkDirection::kUp); }
  void field(analysis::Source& s) { s = code(analysis::Source::kIsis); }
  void field(detect::AlertKind& k) {
    k = code(detect::AlertKind::kTemplateDrift);
  }
  void field(TimePoint& t) { t = TimePoint::from_unix_millis(i64()); }
  void field(Duration& d) { d = Duration::millis(i64()); }
  void field(LinkId& link) {
    const std::uint32_t v = r_.u32();
    link = LinkId(check(v, v < census_links_, "a link id outside the census"));
  }
  void field(std::uint32_t& v) { v = r_.u32(); }
  void field(Symbol& s) {
    const std::uint32_t id = r_.u32();
    const bool known =
        id != kInvalidLocal &&
        !bad(id >= symbols_.size(), "a symbol id outside its table");
    s = known ? symbols_[id] : Symbol();
  }
  template <Wide T>
  void field(T& v) {
    v = r_.u64();
  }
  void field(std::int64_t& v) { v = i64(); }
  void field(int& v) {
    const std::int64_t n = r_.i64();
    v = static_cast<int>(
        check(n, n >= 0 && n <= kMaxCount, "a count out of range"));
  }
  void field(double& v) { v = r_.f64(); }
  void field(OsiSystemId& id) {
    std::array<std::uint8_t, 6> b{};
    r_.raw(b.data(), b.size());
    id = OsiSystemId(b);
  }
  void field(Ipv4Prefix& p) {
    const Ipv4Address network(r_.u32());
    const std::uint8_t length = r_.u8();
    p = Ipv4Prefix(network,
                   check(length, length <= 32, "a prefix length above 32"));
  }

  /// A one-byte flag or enum, at most `last`.
  template <typename E>
  E code(E last) {
    const std::uint8_t b = r_.u8();
    return static_cast<E>(check(b, b <= static_cast<std::uint8_t>(last),
                                "a flag or enum byte out of range"));
  }

  std::int64_t i64() {
    const std::int64_t v = r_.i64();
    return check(v, v >= -kMaxSigned && v <= kMaxSigned,
                 "a 64-bit value out of range");
  }

  /// A container's element count: zero once anything failed, and never
  /// more than the bytes left (every element takes at least one).
  std::uint32_t count() {
    const std::uint32_t n = r_.u32();
    if (error_ || !r_.ok()) return 0;
    return check(n, n <= r_.remaining(), "a count past its end");
  }

  ByteReader r_;
  const std::vector<Symbol>& symbols_;
  std::size_t census_links_;
  std::optional<Error> error_;
};

/// Sort keys: pair keys by their two hosts' text, cell keys by link and
/// then template text (symbol ids follow intern order, not text).
auto by_pair_text(std::uint64_t key) {
  return std::pair(half<Symbol>(key >> 32).view(), half<Symbol>(key).view());
}
auto by_link_then_text(std::uint64_t key) {
  return std::pair(key >> 32, half<Symbol>(key).view());
}
std::string_view by_text(Symbol s) { return s.view(); }

}  // namespace

/// The section layout: one walk per engine part, run by the Writer over
/// `const` state and by the Reader over a scratch engine, so each field is
/// named once and both directions agree by construction. The only code
/// granted friend access to engine internals.
class EngineCodec {
 public:
  template <typename Sink, typename Engine>
  static void walk(Sink& s, Engine& e) {
    s.shard(e.options_.shard);
    s(e.events_, e.syslog_events_, e.lsp_events_, e.high_water_, e.finished_);
    auto& ss = e.syslog_stats_;
    s(ss.lines_seen, ss.parse_failures, ss.irrelevant_lines,
      ss.unresolved_links);
    walk_extractor(s, e.isis_extractor_);
    walk_tracker(s, e.isis_tracker_);
    walk_tracker(s, e.syslog_tracker_);
    walk_detector(s, e.detector_);
  }

  static Status restore(std::string_view section,
                        const std::vector<Symbol>& symbols,
                        stream::StreamEngine& e) {
    Reader r(section, symbols, e.census_->size());
    walk(r, e);
    if (Status s = r.status(); !s.ok()) return s;
    // Relations between fields that the engine's code relies on.
    for (const auto* t : {&e.isis_tracker_, &e.syslog_tracker_}) {
      for (const auto& [link, pl] : t->links_) {
        r.bad(!std::is_heap(pl.pending.begin(), pl.pending.end(),
                            [](auto& a, auto& b) { return b < a; }),
              "a pending buffer that is not a min-heap on (time, seq)");
      }
    }
    r.bad(!active_names_counted_cells(e.detector_),
          "active drift keys other than its counted cells");
    r.bad(e.isis_tracker_.finished_ != e.finished_ ||
              e.syslog_tracker_.finished_ != e.finished_ ||
              e.detector_.finished_ != e.finished_,
          "parts that disagree on whether the stream finished");
    return r.status();
  }

 private:
  template <typename Sink, typename Tracker>
  static void walk_tracker(Sink& s, Tracker& t) {
    s.map(t.links_, std::identity(), [&s](auto& link, auto& pl) {
      auto& w = pl.walker;
      s(link, w.state, w.failure_start, w.last_up, w.has_last_up,
        w.dropped_episode, w.has_last_kept, w.last_kept_time, w.last_kept_dir);
      // A binary min-heap stored in a vector: raw order is the heap.
      s.seq(pl.pending, [&s](auto& p) { s(p.time, p.seq, p.dir); });
      s.seq(pl.held, [&s](auto& f) {
        s(f.link, f.span.begin, f.span.end, f.source, f.in_flap_episode);
      });
      auto& st = pl.stats;
      s(st.link, st.failures, st.downtime, st.state, st.last_transition,
        st.flap_episodes, st.failures_in_episodes, pl.run_count, pl.run_start,
        pl.run_last_end);
    });
    auto& c = t.counters_;
    s(c.transitions_ingested, c.failures_released, c.flap_episodes,
      c.pending_peak, c.double_downs, c.double_ups, c.merged_duplicates,
      c.unterminated);
    auto& wc = t.walker_counters_;
    s(wc.double_downs, wc.double_ups, wc.merged_duplicates, wc.unterminated);
    s(t.total_downtime_, t.high_water_, t.has_high_water_, t.next_seq_,
      t.pending_total_, t.finished_);
  }

  template <typename Sink, typename Extractor>
  static void walk_extractor(Sink& s, Extractor& x) {
    auto& st = x.stats_;
    s(st.lsps_processed, st.checksum_failures, st.parse_failures,
      st.stale_lsps, st.purges, st.unknown_host_pairs, st.unknown_prefixes,
      st.multilink_transitions);
    s.map(x.differ_.sources_, std::identity(), [&s](auto& id, auto& src) {
      s(id, src.sequence, src.hostname);
      s.seq(src.adjacency_count, [&s](auto& n) { s(n.first, n.second); });
      s.seq(src.prefixes, [&s](auto& p) { s(p); });
      s(src.initialized);
    });
    // A pair key packs two process-local symbol ids, lexicographically
    // first host first: it travels as the two symbols.
    s.map(x.fold_.pairs_, by_pair_text, [&s](auto& key, auto& p) {
      packed<Symbol>(s, key, sym::pair_key);
      s(p.count_ab, p.count_ba, p.active, p.last_min);
    });
    s.set(x.fold_.initialized_hosts_, by_text);
    s.map(x.fold_.prefix_advertisers_, std::identity(),
          [&s](auto& prefix, auto& advertisers) { s(prefix, advertisers); });
  }

  template <typename Sink, typename Detector>
  static void walk_detector(Sink& s, Detector& d) {
    s(d.counters_.syslog_observed, d.counters_.isis_observed,
      d.counters_.windows_closed);
    {
      sync::MutexLock lock(d.sink_.mu_);
      s.seq(d.sink_.alerts_, [&s](auto& a) {
        s(a.link, a.time, a.kind, a.score, a.template_id);
      });
    }
    s.map(d.links_, std::identity(), [&s](auto& link, auto& st) {
      s(link, st.has_last_down, st.last_down, st.mean_gap_s, st.cusum,
        st.has_hard_alert, st.last_hard_alert, st.has_cusum_alert,
        st.last_cusum_alert);
    });
    // A cell key packs (link, process-local template symbol).
    s.map(d.cells_, by_link_then_text, [&s](auto& key, auto& cell) {
      packed<LinkId>(s, key, detect::LinkDetector::cell_key);
      s(cell.count, cell.last_event, cell.ewma, cell.ewma_window);
    });
    // Insertion order, which close_window() follows: verbatim.
    s.seq(d.active_, [&s](auto& key) {
      packed<LinkId>(s, key, detect::LinkDetector::cell_key);
    });
    s(d.window_idx_, d.finished_);
  }

  /// A packed (high << 32 | low symbol) key travels as its two halves; the
  /// reader packs them again with `pack`.
  template <typename Hi, typename Sink, typename Key, typename Pack>
  static void packed(Sink& s, Key& key, Pack pack) {
    Hi hi = half<Hi>(key >> 32);
    Symbol lo = half<Symbol>(key);
    s(hi, lo);
    if constexpr (!std::is_const_v<Key>) key = pack(hi, lo);
  }

  /// close_window() looks up each active key's cell and resets its count:
  /// the active keys must be the cells with a nonzero count, once each.
  static bool active_names_counted_cells(const detect::LinkDetector& d) {
    std::vector<std::uint64_t> keys = d.active_;
    std::sort(keys.begin(), keys.end());
    const auto counted = [](const auto& kv) { return kv.second.count != 0; };
    return std::adjacent_find(keys.begin(), keys.end()) == keys.end() &&
           static_cast<std::size_t>(std::count_if(
               d.cells_.begin(), d.cells_.end(), counted)) == keys.size() &&
           std::all_of(keys.begin(), keys.end(), [&](std::uint64_t key) {
             const auto it = d.cells_.find(key);
             return it != d.cells_.end() && counted(*it);
           });
  }
};

std::uint64_t census_fingerprint(const LinkCensus& census) {
  std::uint64_t h = stream::kFnv64OffsetBasis;
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<std::uint8_t>(c);
      h *= stream::kFnv64Prime;
    }
  };
  const std::uint64_t n = census.size();
  mix(std::string_view(reinterpret_cast<const char*>(&n), sizeof(n)));
  for (const CensusLink& link : census.links()) {
    mix(link.name);
    mix(std::string_view("\0", 1));
  }
  return h;
}

// ---- file framing -----------------------------------------------------------

Status save_snapshot(const std::string& path,
                     std::span<const stream::StreamEngine* const> shards,
                     const LinkCensus& census) {
  Writer writer;
  std::vector<std::string> sections;
  sections.reserve(shards.size());
  for (const stream::StreamEngine* engine : shards) {
    EngineCodec::walk(writer, *engine);
    sections.push_back(writer.take_section());
  }

  ByteWriter body;
  body.u64(census_fingerprint(census));
  body.u32(static_cast<std::uint32_t>(shards.size()));
  body.u32(static_cast<std::uint32_t>(writer.symbol_order().size()));
  for (const std::uint32_t global_id : writer.symbol_order()) {
    body.str(sym::id_view(global_id));
  }
  for (const std::string& section : sections) {
    body.u64(section.size());
    body.raw(section.data(), section.size());
  }

  ByteWriter file;
  file.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  file.u32(kSnapshotVersion);
  file.u64(body.size());
  file.raw(body.bytes().data(), body.size());
  file.u64(stream::stable_hash64(body.bytes()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot open snapshot temp file " + tmp + ": " +
                          std::strerror(errno));
  }
  const std::string& bytes = file.bytes();
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return make_error(ErrorCode::kInternal,
                      "short write to snapshot temp file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return make_error(ErrorCode::kInternal,
                      "cannot rename snapshot into place at " + path + ": " +
                          std::strerror(err));
  }
  return Status::ok_status();
}

Result<LoadedSnapshot> LoadedSnapshot::load(const std::string& path,
                                            const LinkCensus& census) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kNotFound,
                      "no snapshot at " + path + ": " + std::strerror(errno));
  }
  const std::string data{std::istreambuf_iterator<char>(in), {}};
  if (in.bad()) {
    return make_error(ErrorCode::kInternal, "error reading snapshot " + path);
  }

  constexpr std::size_t kHeader = sizeof(kSnapshotMagic) + 4 + 8;
  if (data.size() < kHeader) {
    return make_error(ErrorCode::kTruncated,
                      "snapshot header truncated in " + path);
  }
  if (std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return make_error(ErrorCode::kParseError,
                      path + " is not a netfail snapshot");
  }
  ByteReader header(std::string_view(data).substr(sizeof(kSnapshotMagic)));
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    return make_error(ErrorCode::kUnsupported,
                      "snapshot format version " + std::to_string(version) +
                          (version > kSnapshotVersion ? " is newer than"
                                                      : " is older than") +
                          " supported version " +
                          std::to_string(kSnapshotVersion));
  }
  const std::uint64_t body_len = header.u64();
  if (data.size() < kHeader + body_len + 8) {
    return make_error(ErrorCode::kTruncated,
                      "snapshot body truncated in " + path);
  }
  const std::string_view body_view =
      std::string_view(data).substr(kHeader, body_len);
  ByteReader trailer(
      std::string_view(data).substr(kHeader + body_len, 8));
  const std::uint64_t stored_checksum = trailer.u64();
  if (stream::stable_hash64(body_view) != stored_checksum) {
    return make_error(ErrorCode::kChecksumMismatch,
                      "snapshot checksum mismatch in " + path);
  }

  LoadedSnapshot snap;
  snap.body_ = std::string(body_view);
  ByteReader r{std::string_view(snap.body_)};
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != census_fingerprint(census)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "snapshot census fingerprint mismatch: the snapshot was "
                      "taken under a different link census");
  }
  const std::uint32_t shard_count = r.u32();
  if (!r.ok() || shard_count == 0 || shard_count > 4096) {
    return make_error(ErrorCode::kParseError,
                      "snapshot shard count out of range");
  }
  const std::uint32_t symbol_count = r.u32();
  snap.symbols_.reserve(std::min<std::uint32_t>(symbol_count, 65536));
  for (std::uint32_t i = 0; i < symbol_count && r.ok(); ++i) {
    snap.symbols_.emplace_back(r.str());
  }
  for (std::uint32_t i = 0; i < shard_count && r.ok(); ++i) {
    const std::uint64_t len = r.u64();
    const std::size_t offset = r.position();
    if (!r.skip(len)) break;
    snap.sections_.emplace_back(offset, static_cast<std::size_t>(len));
  }
  if (!r.ok() || snap.sections_.size() != shard_count) {
    return make_error(ErrorCode::kTruncated,
                      "snapshot section table truncated in " + path);
  }
  if (!r.exhausted()) {
    return make_error(ErrorCode::kParseError,
                      "snapshot body has trailing bytes");
  }
  return snap;
}

Status LoadedSnapshot::restore_shard(std::uint32_t shard,
                                     stream::StreamEngine& engine) const {
  if (shard >= sections_.size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "snapshot has " + std::to_string(sections_.size()) +
                          " shard(s); cannot restore shard " +
                          std::to_string(shard));
  }
  const auto [offset, len] = sections_[shard];
  // Never-partial guarantee: decode into a scratch copy (which preserves
  // the census pointer, options and callbacks) and commit only on success.
  stream::StreamEngine scratch(engine);
  if (Status s = EngineCodec::restore(
          std::string_view(body_).substr(offset, len), symbols_, scratch);
      !s.ok()) {
    return s;
  }
  engine = std::move(scratch);
  return Status::ok_status();
}

}  // namespace netfail::svc
