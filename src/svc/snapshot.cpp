#include "src/svc/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <tuple>

#include "src/common/sync.hpp"
#include "src/stream/sharded.hpp"

namespace netfail::svc {
namespace {

Error truncated_error() {
  return make_error(ErrorCode::kTruncated, "snapshot section truncated");
}

void put_time(ByteWriter& w, TimePoint t) { w.i64(t.unix_millis()); }
TimePoint get_time(ByteReader& r) {
  return TimePoint::from_unix_millis(r.i64());
}

void put_dir(ByteWriter& w, LinkDirection d) {
  w.u8(d == LinkDirection::kUp ? 1 : 0);
}
LinkDirection get_dir(ByteReader& r) {
  return r.u8() != 0 ? LinkDirection::kUp : LinkDirection::kDown;
}

void put_failure(ByteWriter& w, const analysis::Failure& f) {
  w.u32(f.link.value());
  put_time(w, f.span.begin);
  put_time(w, f.span.end);
  w.u8(f.source == analysis::Source::kIsis ? 1 : 0);
  w.u8(f.in_flap_episode ? 1 : 0);
}
analysis::Failure get_failure(ByteReader& r) {
  analysis::Failure f;
  f.link = LinkId(r.u32());
  f.span.begin = get_time(r);
  f.span.end = get_time(r);
  f.source = r.u8() != 0 ? analysis::Source::kIsis : analysis::Source::kSyslog;
  f.in_flap_episode = r.u8() != 0;
  return f;
}

/// File-local symbol id -> process symbol. Sets `*bad` on an id the table
/// does not cover (a corrupt section that still passed the checksum is
/// practically impossible, but decode stays total anyway).
Symbol get_sym(ByteReader& r, const std::vector<Symbol>& syms, bool* bad) {
  const std::uint32_t id = r.u32();
  if (id == SymbolSink::kInvalidLocal) return Symbol::invalid();
  if (id >= syms.size()) {
    *bad = true;
    return Symbol::invalid();
  }
  return syms[id];
}

}  // namespace

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

std::uint32_t SymbolSink::local_id(Symbol s) {
  if (!s.valid()) return kInvalidLocal;
  if (s.value() >= local_by_global_.size()) {
    local_by_global_.resize(s.value() + 1, kInvalidLocal);
  }
  std::uint32_t& slot = local_by_global_[s.value()];
  if (slot == kInvalidLocal) {
    slot = static_cast<std::uint32_t>(order_.size());
    order_.push_back(s.value());
  }
  return slot;
}

// ---- LinkTracker ------------------------------------------------------------

void EngineCodec::encode_tracker(const stream::LinkTracker& t, ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(t.links_.size()));
  for (const auto& [link, pl] : t.links_) {  // std::map: LinkId order
    w.u32(link.value());
    put_dir(w, pl.walker.state);
    put_time(w, pl.walker.failure_start);
    put_time(w, pl.walker.last_up);
    w.u8(pl.walker.has_last_up ? 1 : 0);
    w.u8(pl.walker.dropped_episode ? 1 : 0);
    w.u8(pl.walker.has_last_kept ? 1 : 0);
    put_time(w, pl.walker.last_kept_time);
    put_dir(w, pl.walker.last_kept_dir);
    // The pending buffer is a binary min-heap stored in a vector; raw
    // vector order round-trips the heap property exactly.
    w.u32(static_cast<std::uint32_t>(pl.pending.size()));
    for (const auto& p : pl.pending) {
      put_time(w, p.time);
      w.u64(p.seq);
      put_dir(w, p.dir);
    }
    w.u32(static_cast<std::uint32_t>(pl.held.size()));
    for (const auto& f : pl.held) put_failure(w, f);
    w.u32(pl.stats.link.value());
    w.u64(pl.stats.failures);
    w.i64(pl.stats.downtime.total_millis());
    put_dir(w, pl.stats.state);
    put_time(w, pl.stats.last_transition);
    w.u64(pl.stats.flap_episodes);
    w.u64(pl.stats.failures_in_episodes);
    w.u64(pl.run_count);
    put_time(w, pl.run_start);
    put_time(w, pl.run_last_end);
  }
  w.u64(t.counters_.transitions_ingested);
  w.u64(t.counters_.failures_released);
  w.u64(t.counters_.flap_episodes);
  w.u64(t.counters_.pending_peak);
  w.u64(t.counters_.double_downs);
  w.u64(t.counters_.double_ups);
  w.u64(t.counters_.merged_duplicates);
  w.u64(t.counters_.unterminated);
  w.u64(t.walker_counters_.double_downs);
  w.u64(t.walker_counters_.double_ups);
  w.u64(t.walker_counters_.merged_duplicates);
  w.u64(t.walker_counters_.unterminated);
  w.i64(t.total_downtime_.total_millis());
  put_time(w, t.high_water_);
  w.u8(t.has_high_water_ ? 1 : 0);
  w.u64(t.next_seq_);
  w.u64(t.pending_total_);
  w.u8(t.finished_ ? 1 : 0);
}

Status EngineCodec::decode_tracker(ByteReader& r, stream::LinkTracker& t) {
  t.links_.clear();
  const std::uint32_t link_count = r.u32();
  for (std::uint32_t i = 0; i < link_count && r.ok(); ++i) {
    const LinkId link(r.u32());
    auto& pl = t.links_[link];
    pl.walker.state = get_dir(r);
    pl.walker.failure_start = get_time(r);
    pl.walker.last_up = get_time(r);
    pl.walker.has_last_up = r.u8() != 0;
    pl.walker.dropped_episode = r.u8() != 0;
    pl.walker.has_last_kept = r.u8() != 0;
    pl.walker.last_kept_time = get_time(r);
    pl.walker.last_kept_dir = get_dir(r);
    const std::uint32_t pending = r.u32();
    pl.pending.clear();
    for (std::uint32_t j = 0; j < pending && r.ok(); ++j) {
      stream::LinkTracker::PendingTransition p;
      p.time = get_time(r);
      p.seq = r.u64();
      p.dir = get_dir(r);
      pl.pending.push_back(p);
    }
    const std::uint32_t held = r.u32();
    pl.held.clear();
    for (std::uint32_t j = 0; j < held && r.ok(); ++j) {
      pl.held.push_back(get_failure(r));
    }
    pl.stats.link = LinkId(r.u32());
    pl.stats.failures = static_cast<std::size_t>(r.u64());
    pl.stats.downtime = Duration::millis(r.i64());
    pl.stats.state = get_dir(r);
    pl.stats.last_transition = get_time(r);
    pl.stats.flap_episodes = static_cast<std::size_t>(r.u64());
    pl.stats.failures_in_episodes = static_cast<std::size_t>(r.u64());
    pl.run_count = static_cast<std::size_t>(r.u64());
    pl.run_start = get_time(r);
    pl.run_last_end = get_time(r);
  }
  t.counters_.transitions_ingested = r.u64();
  t.counters_.failures_released = r.u64();
  t.counters_.flap_episodes = r.u64();
  t.counters_.pending_peak = r.u64();
  t.counters_.double_downs = r.u64();
  t.counters_.double_ups = r.u64();
  t.counters_.merged_duplicates = r.u64();
  t.counters_.unterminated = r.u64();
  t.walker_counters_.failures.clear();
  t.walker_counters_.ambiguous.clear();
  t.walker_counters_.double_downs = static_cast<std::size_t>(r.u64());
  t.walker_counters_.double_ups = static_cast<std::size_t>(r.u64());
  t.walker_counters_.merged_duplicates = static_cast<std::size_t>(r.u64());
  t.walker_counters_.unterminated = static_cast<std::size_t>(r.u64());
  t.ambiguous_scratch_.clear();
  t.total_downtime_ = Duration::millis(r.i64());
  t.high_water_ = get_time(r);
  t.has_high_water_ = r.u8() != 0;
  t.next_seq_ = r.u64();
  t.pending_total_ = static_cast<std::size_t>(r.u64());
  t.finished_ = r.u8() != 0;
  if (!r.ok()) return truncated_error();
  return Status::ok_status();
}

// ---- isis::StreamingExtractor -----------------------------------------------

void EngineCodec::encode_extractor(const isis::StreamingExtractor& x,
                                   SymbolSink& syms, ByteWriter& w) {
  w.u64(x.stats_.lsps_processed);
  w.u64(x.stats_.checksum_failures);
  w.u64(x.stats_.parse_failures);
  w.u64(x.stats_.stale_lsps);
  w.u64(x.stats_.purges);
  w.u64(x.stats_.unknown_host_pairs);
  w.u64(x.stats_.unknown_prefixes);
  w.u64(x.stats_.multilink_transitions);

  // Unordered containers are written in sorted order so the section bytes
  // are a pure function of state (intern order and hash seeds are not).
  std::vector<const std::pair<const OsiSystemId,
                              isis::LspDiffer::SourceState>*>
      sources;
  sources.reserve(x.differ_.sources_.size());
  for (const auto& kv : x.differ_.sources_) sources.push_back(&kv);
  std::sort(sources.begin(), sources.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.u32(static_cast<std::uint32_t>(sources.size()));
  for (const auto* kv : sources) {
    w.raw(kv->first.bytes().data(), 6);
    const auto& src = kv->second;
    w.u32(src.sequence);
    w.u32(syms.local_id(src.hostname));
    w.u32(static_cast<std::uint32_t>(src.adjacency_count.size()));
    for (const auto& [neighbor, count] : src.adjacency_count) {
      w.raw(neighbor.bytes().data(), 6);
      w.i64(count);
    }
    w.u32(static_cast<std::uint32_t>(src.prefixes.size()));
    for (const auto& p : src.prefixes) {
      w.u32(p.network().value());
      w.u8(static_cast<std::uint8_t>(p.length()));
    }
    w.u8(src.initialized ? 1 : 0);
  }

  // Pair keys pack process-local symbol ids; store the symbols themselves
  // (lexicographically-first host first, matching sym::pair_key) and let
  // restore recompute the key from re-interned symbols.
  std::vector<std::tuple<Symbol, Symbol, const isis::PairFold::PairState*>>
      pairs;
  pairs.reserve(x.fold_.pairs_.size());
  for (const auto& [key, st] : x.fold_.pairs_) {
    pairs.emplace_back(Symbol::from_id(static_cast<std::uint32_t>(key >> 32)),
                       Symbol::from_id(static_cast<std::uint32_t>(key)), &st);
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) == std::get<0>(b)) {
      return sym::lex_less(std::get<1>(a), std::get<1>(b));
    }
    return sym::lex_less(std::get<0>(a), std::get<0>(b));
  });
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [lo, hi, st] : pairs) {
    w.u32(syms.local_id(lo));
    w.u32(syms.local_id(hi));
    w.i64(st->count_ab);
    w.i64(st->count_ba);
    w.u8(st->active ? 1 : 0);
    w.i64(st->last_min);
  }

  std::vector<Symbol> hosts(x.fold_.initialized_hosts_.begin(),
                            x.fold_.initialized_hosts_.end());
  std::sort(hosts.begin(), hosts.end(), sym::lex_less);
  w.u32(static_cast<std::uint32_t>(hosts.size()));
  for (const Symbol h : hosts) w.u32(syms.local_id(h));

  std::vector<std::pair<Ipv4Prefix, int>> advertisers(
      x.fold_.prefix_advertisers_.begin(), x.fold_.prefix_advertisers_.end());
  std::sort(advertisers.begin(), advertisers.end());
  w.u32(static_cast<std::uint32_t>(advertisers.size()));
  for (const auto& [prefix, count] : advertisers) {
    w.u32(prefix.network().value());
    w.u8(static_cast<std::uint8_t>(prefix.length()));
    w.i64(count);
  }
}

Status EngineCodec::decode_extractor(ByteReader& r,
                                     const std::vector<Symbol>& syms,
                                     isis::StreamingExtractor& x) {
  bool bad_sym = false;
  x.stats_.lsps_processed = static_cast<std::size_t>(r.u64());
  x.stats_.checksum_failures = static_cast<std::size_t>(r.u64());
  x.stats_.parse_failures = static_cast<std::size_t>(r.u64());
  x.stats_.stale_lsps = static_cast<std::size_t>(r.u64());
  x.stats_.purges = static_cast<std::size_t>(r.u64());
  x.stats_.unknown_host_pairs = static_cast<std::size_t>(r.u64());
  x.stats_.unknown_prefixes = static_cast<std::size_t>(r.u64());
  x.stats_.multilink_transitions = static_cast<std::size_t>(r.u64());

  x.differ_.sources_.clear();
  const std::uint32_t source_count = r.u32();
  for (std::uint32_t i = 0; i < source_count && r.ok(); ++i) {
    std::array<std::uint8_t, 6> id{};
    r.raw(id.data(), id.size());
    auto& src = x.differ_.sources_[OsiSystemId(id)];
    src.sequence = r.u32();
    src.hostname = get_sym(r, syms, &bad_sym);
    const std::uint32_t adjacencies = r.u32();
    src.adjacency_count.clear();
    for (std::uint32_t j = 0; j < adjacencies && r.ok(); ++j) {
      std::array<std::uint8_t, 6> nb{};
      r.raw(nb.data(), nb.size());
      src.adjacency_count.emplace_back(OsiSystemId(nb),
                                       static_cast<int>(r.i64()));
    }
    const std::uint32_t prefixes = r.u32();
    src.prefixes.clear();
    for (std::uint32_t j = 0; j < prefixes && r.ok(); ++j) {
      const Ipv4Address network(r.u32());
      src.prefixes.emplace_back(network, static_cast<int>(r.u8()));
    }
    src.initialized = r.u8() != 0;
  }

  x.fold_.pairs_.clear();
  const std::uint32_t pair_count = r.u32();
  for (std::uint32_t i = 0; i < pair_count && r.ok(); ++i) {
    const Symbol lo = get_sym(r, syms, &bad_sym);
    const Symbol hi = get_sym(r, syms, &bad_sym);
    auto& st = x.fold_.pairs_[sym::pair_key(lo, hi)];
    st.count_ab = static_cast<int>(r.i64());
    st.count_ba = static_cast<int>(r.i64());
    st.active = r.u8() != 0;
    st.last_min = static_cast<int>(r.i64());
  }

  x.fold_.initialized_hosts_.clear();
  const std::uint32_t host_count = r.u32();
  for (std::uint32_t i = 0; i < host_count && r.ok(); ++i) {
    x.fold_.initialized_hosts_.insert(get_sym(r, syms, &bad_sym));
  }

  x.fold_.prefix_advertisers_.clear();
  const std::uint32_t advertiser_count = r.u32();
  for (std::uint32_t i = 0; i < advertiser_count && r.ok(); ++i) {
    const Ipv4Address network(r.u32());
    const int length = static_cast<int>(r.u8());
    x.fold_.prefix_advertisers_[Ipv4Prefix(network, length)] =
        static_cast<int>(r.i64());
  }

  if (!r.ok()) return truncated_error();
  if (bad_sym) {
    return make_error(ErrorCode::kParseError,
                      "snapshot references a symbol id outside its table");
  }
  return Status::ok_status();
}

// ---- detect::LinkDetector ---------------------------------------------------

void EngineCodec::encode_detector(const detect::LinkDetector& d,
                                  SymbolSink& syms, ByteWriter& w) {
  w.u64(d.counters_.syslog_observed);
  w.u64(d.counters_.isis_observed);
  w.u64(d.counters_.windows_closed);

  const std::vector<detect::LinkAlert> alerts = d.sink_.snapshot();
  w.u32(static_cast<std::uint32_t>(alerts.size()));
  for (const auto& a : alerts) {
    w.u32(a.link.value());
    put_time(w, a.time);
    w.u8(static_cast<std::uint8_t>(a.kind));
    w.f64(a.score);
    w.u32(syms.local_id(a.template_id));
  }

  std::vector<std::pair<LinkId, const detect::LinkDetector::LinkState*>> links;
  links.reserve(d.links_.size());
  for (const auto& [link, st] : d.links_) links.emplace_back(link, &st);
  std::sort(links.begin(), links.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u32(static_cast<std::uint32_t>(links.size()));
  for (const auto& [link, st] : links) {
    w.u32(link.value());
    w.u8(st->has_last_down ? 1 : 0);
    put_time(w, st->last_down);
    w.f64(st->mean_gap_s);
    w.f64(st->cusum);
    w.u8(st->has_hard_alert ? 1 : 0);
    put_time(w, st->last_hard_alert);
    w.u8(st->has_cusum_alert ? 1 : 0);
    put_time(w, st->last_cusum_alert);
  }

  // Cell keys pack (link id, process symbol id); store (link, symbol) and
  // recompute keys on restore, sorted by (link, lexicographic template).
  std::vector<std::tuple<LinkId, Symbol, const detect::LinkDetector::DriftCell*>>
      cells;
  cells.reserve(d.cells_.size());
  for (const auto& [key, cell] : d.cells_) {
    cells.emplace_back(LinkId(static_cast<std::uint32_t>(key >> 32)),
                       Symbol::from_id(static_cast<std::uint32_t>(key)),
                       &cell);
  }
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return std::get<0>(a) < std::get<0>(b);
    }
    return sym::lex_less(std::get<1>(a), std::get<1>(b));
  });
  w.u32(static_cast<std::uint32_t>(cells.size()));
  for (const auto& [link, tmpl, cell] : cells) {
    w.u32(link.value());
    w.u32(syms.local_id(tmpl));
    w.u32(cell->count);
    put_time(w, cell->last_event);
    w.f64(cell->ewma);
    w.i64(cell->ewma_window);
  }

  // active_ is insertion-ordered and close_window() depends on that order;
  // serialize it verbatim.
  w.u32(static_cast<std::uint32_t>(d.active_.size()));
  for (const std::uint64_t key : d.active_) {
    w.u32(static_cast<std::uint32_t>(key >> 32));
    w.u32(syms.local_id(Symbol::from_id(static_cast<std::uint32_t>(key))));
  }
  w.i64(d.window_idx_);
  w.u8(d.finished_ ? 1 : 0);
}

Status EngineCodec::decode_detector(ByteReader& r,
                                    const std::vector<Symbol>& syms,
                                    detect::LinkDetector& d) {
  bool bad_sym = false;
  d.counters_.syslog_observed = r.u64();
  d.counters_.isis_observed = r.u64();
  d.counters_.windows_closed = r.u64();

  std::vector<detect::LinkAlert> alerts;
  const std::uint32_t alert_count = r.u32();
  alerts.reserve(std::min<std::uint32_t>(alert_count, 4096));
  for (std::uint32_t i = 0; i < alert_count && r.ok(); ++i) {
    detect::LinkAlert a;
    a.link = LinkId(r.u32());
    a.time = get_time(r);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(detect::AlertKind::kTemplateDrift)) {
      return make_error(ErrorCode::kParseError,
                        "snapshot alert kind out of range");
    }
    a.kind = static_cast<detect::AlertKind>(kind);
    a.score = r.f64();
    a.template_id = get_sym(r, syms, &bad_sym);
    alerts.push_back(a);
  }
  {
    sync::MutexLock lock(d.sink_.mu_);
    d.sink_.alerts_ = std::move(alerts);
  }

  d.links_.clear();
  const std::uint32_t link_count = r.u32();
  for (std::uint32_t i = 0; i < link_count && r.ok(); ++i) {
    auto& st = d.links_[LinkId(r.u32())];
    st.has_last_down = r.u8() != 0;
    st.last_down = get_time(r);
    st.mean_gap_s = r.f64();
    st.cusum = r.f64();
    st.has_hard_alert = r.u8() != 0;
    st.last_hard_alert = get_time(r);
    st.has_cusum_alert = r.u8() != 0;
    st.last_cusum_alert = get_time(r);
  }

  d.cells_.clear();
  const std::uint32_t cell_count = r.u32();
  for (std::uint32_t i = 0; i < cell_count && r.ok(); ++i) {
    const LinkId link(r.u32());
    const Symbol tmpl = get_sym(r, syms, &bad_sym);
    auto& cell = d.cells_[detect::LinkDetector::cell_key(link, tmpl)];
    cell.count = r.u32();
    cell.last_event = get_time(r);
    cell.ewma = r.f64();
    cell.ewma_window = r.i64();
  }

  d.active_.clear();
  const std::uint32_t active_count = r.u32();
  for (std::uint32_t i = 0; i < active_count && r.ok(); ++i) {
    const LinkId link(r.u32());
    const Symbol tmpl = get_sym(r, syms, &bad_sym);
    d.active_.push_back(detect::LinkDetector::cell_key(link, tmpl));
  }
  d.window_idx_ = r.i64();
  d.finished_ = r.u8() != 0;
  d.scratch_.clear();

  if (!r.ok()) return truncated_error();
  if (bad_sym) {
    return make_error(ErrorCode::kParseError,
                      "snapshot references a symbol id outside its table");
  }
  return Status::ok_status();
}

// ---- StreamEngine -----------------------------------------------------------

void EngineCodec::encode(const stream::StreamEngine& engine, SymbolSink& syms,
                         ByteWriter& w) {
  w.u32(engine.options_.shard);
  w.u64(engine.events_);
  w.u64(engine.syslog_events_);
  w.u64(engine.lsp_events_);
  put_time(w, engine.high_water_);
  w.u8(engine.finished_ ? 1 : 0);
  w.u64(engine.syslog_stats_.lines_seen);
  w.u64(engine.syslog_stats_.parse_failures);
  w.u64(engine.syslog_stats_.irrelevant_lines);
  w.u64(engine.syslog_stats_.unresolved_links);
  encode_extractor(engine.isis_extractor_, syms, w);
  encode_tracker(engine.isis_tracker_, w);
  encode_tracker(engine.syslog_tracker_, w);
  encode_detector(engine.detector_, syms, w);
}

Status EngineCodec::decode(ByteReader& r, const std::vector<Symbol>& syms,
                           stream::StreamEngine& engine) {
  const std::uint32_t shard = r.u32();
  if (!r.ok()) return truncated_error();
  if (shard != engine.options_.shard) {
    return make_error(
        ErrorCode::kInvalidArgument,
        "snapshot section is for shard " + std::to_string(shard) +
            ", engine is shard " + std::to_string(engine.options_.shard));
  }
  engine.events_ = r.u64();
  engine.syslog_events_ = r.u64();
  engine.lsp_events_ = r.u64();
  engine.high_water_ = get_time(r);
  engine.finished_ = r.u8() != 0;
  engine.syslog_stats_.lines_seen = static_cast<std::size_t>(r.u64());
  engine.syslog_stats_.parse_failures = static_cast<std::size_t>(r.u64());
  engine.syslog_stats_.irrelevant_lines = static_cast<std::size_t>(r.u64());
  engine.syslog_stats_.unresolved_links = static_cast<std::size_t>(r.u64());
  engine.scratch_.clear();
  if (Status s = decode_extractor(r, syms, engine.isis_extractor_); !s.ok()) {
    return s;
  }
  if (Status s = decode_tracker(r, engine.isis_tracker_); !s.ok()) return s;
  if (Status s = decode_tracker(r, engine.syslog_tracker_); !s.ok()) return s;
  if (Status s = decode_detector(r, syms, engine.detector_); !s.ok()) return s;
  if (!r.ok()) return truncated_error();
  if (!r.exhausted()) {
    return make_error(ErrorCode::kParseError,
                      "snapshot section has trailing bytes");
  }
  return Status::ok_status();
}

// ---- file framing -----------------------------------------------------------

Status save_snapshot(const std::string& path,
                     std::span<const stream::StreamEngine* const> shards,
                     const LinkCensus& census) {
  SymbolSink syms;
  std::vector<std::string> sections;
  sections.reserve(shards.size());
  for (const stream::StreamEngine* engine : shards) {
    ByteWriter sw;
    EngineCodec::encode(*engine, syms, sw);
    sections.push_back(sw.take());
  }

  ByteWriter body;
  body.u64(census_fingerprint(census));
  body.u32(static_cast<std::uint32_t>(shards.size()));
  body.u32(static_cast<std::uint32_t>(syms.order().size()));
  for (const std::uint32_t global_id : syms.order()) {
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
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return make_error(ErrorCode::kNotFound,
                      "no snapshot at " + path + ": " + std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
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
  ByteReader r{std::string_view(body_).substr(offset, len)};
  if (Status s = EngineCodec::decode(r, symbols_, scratch); !s.ok()) return s;
  engine = std::move(scratch);
  return Status::ok_status();
}

}  // namespace netfail::svc
