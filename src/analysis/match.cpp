#include "src/analysis/match.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace netfail::analysis {

TransitionTimeIndex::TransitionTimeIndex(
    const std::vector<isis::IsisTransition>& transitions)
    : slots_(LinkSlots::covering(
          transitions.size(),
          [&](std::size_t i) { return transitions[i].link; })),
      times_(
          slots_.directed_size(), transitions.size(),
          [&](std::size_t i) {
            const isis::IsisTransition& tr = transitions[i];
            return link_resolved(tr) ? slots_.of(tr.link, tr.dir)
                                     : slots_.directed_size();
          },
          [&](std::size_t i) { return transitions[i].time; }) {
  for (std::size_t s = 0; s < slots_.directed_size(); ++s) {
    const std::span<TimePoint> v = times_[s];
    std::sort(v.begin(), v.end());
  }
}

bool TransitionTimeIndex::any_within(LinkId link, LinkDirection dir,
                                     TimePoint t, Duration window) const {
  const std::span<const TimePoint> v = times_[slots_.of(link, dir)];
  const auto lo = std::lower_bound(v.begin(), v.end(), t - window);
  return lo != v.end() && *lo <= t + window;
}

bool TransitionTimeIndex::any_between(LinkId link, LinkDirection dir,
                                      TimePoint a, TimePoint b) const {
  const std::span<const TimePoint> v = times_[slots_.of(link, dir)];
  const auto lo = std::upper_bound(v.begin(), v.end(), a);
  return lo != v.end() && *lo < b;
}

TransitionMatchCounts match_transitions(
    const std::vector<isis::IsisTransition>& isis,
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::map<LinkId, IntervalSet>& flaps, const MatchOptions& options) {
  // Bucket syslog adjacency messages per (link, dir), kept with reporter so
  // a message is consumed by at most one IS-IS transition.
  struct Msg {
    TimePoint time;
    Symbol reporter;
    bool used = false;
  };
  auto adjacency = [&](std::size_t i) {
    const syslog::SyslogTransition& tr = syslog[i];
    return tr.cls == syslog::MessageClass::kIsisAdjacency && tr.link.valid();
  };
  const LinkSlots slots =
      LinkSlots::covering(syslog.size(), [&](std::size_t i) {
        return adjacency(i) ? syslog[i].link : LinkId::invalid();
      });
  Buckets<Msg> buckets(
      slots.directed_size(), syslog.size(),
      [&](std::size_t i) {
        return adjacency(i) ? slots.of(syslog[i].link, syslog[i].dir)
                            : slots.directed_size();
      },
      [&](std::size_t i) { return Msg{syslog[i].time, syslog[i].reporter}; });
  for (std::size_t s = 0; s < slots.directed_size(); ++s) {
    const std::span<Msg> v = buckets[s];
    std::sort(v.begin(), v.end(),
              [](const Msg& a, const Msg& b) { return a.time < b.time; });
  }

  TransitionMatchCounts out;
  for (const isis::IsisTransition& tr : isis) {
    if (!link_resolved(tr)) continue;

    int reporters = 0;
    const std::span<Msg> v = buckets[slots.of(tr.link, tr.dir)];
    const auto lo = std::lower_bound(
        v.begin(), v.end(), tr.time - options.window,
        [](const Msg& m, TimePoint t) { return m.time < t; });
    // The loop breaks at two reporters, so at most one distinct reporter
    // is ever "seen" when the dedup check runs — a single Symbol suffices.
    Symbol seen = Symbol::invalid();
    for (auto m = lo; m != v.end() && m->time <= tr.time + options.window;
         ++m) {
      if (m->used || m->reporter == seen) continue;
      m->used = true;
      seen = m->reporter;
      if (++reporters == 2) break;
    }

    const bool down = tr.dir == LinkDirection::kDown;
    if (reporters == 0) {
      (down ? out.down_none : out.up_none)++;
      const auto f = flaps.find(tr.link);
      if (f != flaps.end() && f->second.contains(tr.time)) {
        (down ? out.down_none_in_flap : out.up_none_in_flap)++;
      }
    } else if (reporters == 1) {
      (down ? out.down_one : out.up_one)++;
    } else {
      (down ? out.down_both : out.up_both)++;
    }
  }
  return out;
}

ReachabilityMatchTable match_reachability(
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::vector<isis::IsisTransition>& is_reach,
    const std::vector<isis::IsisTransition>& ip_reach,
    const MatchOptions& options) {
  return match_reachability(syslog, TransitionTimeIndex(is_reach), ip_reach,
                            options);
}

ReachabilityMatchTable match_reachability(
    const std::vector<syslog::SyslogTransition>& syslog,
    const TransitionTimeIndex& is_index,
    const std::vector<isis::IsisTransition>& ip_reach,
    const MatchOptions& options) {
  const TransitionTimeIndex ip_index(ip_reach);

  std::size_t counts[2][2] = {};       // [class][dir] message totals
  std::size_t match_is[2][2] = {};     // matched by IS reach
  std::size_t match_ip[2][2] = {};     // matched by IP reach
  for (const syslog::SyslogTransition& tr : syslog) {
    if (!tr.link.valid()) continue;
    const int cls = tr.cls == syslog::MessageClass::kIsisAdjacency ? 0 : 1;
    const int dir = tr.dir == LinkDirection::kDown ? 0 : 1;
    ++counts[cls][dir];
    if (is_index.any_within(tr.link, tr.dir, tr.time, options.window)) {
      ++match_is[cls][dir];
    }
    if (ip_index.any_within(tr.link, tr.dir, tr.time, options.window)) {
      ++match_ip[cls][dir];
    }
  }

  auto pct = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) /
                                static_cast<double>(den);
  };
  ReachabilityMatchTable out;
  out.isis_down_messages = counts[0][0];
  out.isis_up_messages = counts[0][1];
  out.media_down_messages = counts[1][0];
  out.media_up_messages = counts[1][1];
  out.isis_down_vs_is = pct(match_is[0][0], counts[0][0]);
  out.isis_down_vs_ip = pct(match_ip[0][0], counts[0][0]);
  out.isis_up_vs_is = pct(match_is[0][1], counts[0][1]);
  out.isis_up_vs_ip = pct(match_ip[0][1], counts[0][1]);
  out.media_down_vs_is = pct(match_is[1][0], counts[1][0]);
  out.media_down_vs_ip = pct(match_ip[1][0], counts[1][0]);
  out.media_up_vs_is = pct(match_is[1][1], counts[1][1]);
  out.media_up_vs_ip = pct(match_ip[1][1], counts[1][1]);
  return out;
}

FailureMatchResult match_failures(const std::vector<Failure>& isis,
                                  const std::vector<Failure>& syslog,
                                  const MatchOptions& options) {
  return match_failures(isis, LinkDowntime(isis), syslog, options);
}

FailureMatchResult match_failures(const std::vector<Failure>& isis,
                                  const LinkDowntime& isis_down,
                                  const std::vector<Failure>& syslog,
                                  const MatchOptions& options) {
  FailureMatchResult out;
  out.isis_count = isis.size();
  out.syslog_count = syslog.size();

  // Downtime interval sets drive the hour-level numbers; links in LinkId
  // order, as the per-link maps were summed.
  const LinkDowntime syslog_down(syslog);
  const LinkSlots& isis_slots = isis_down.slots();
  for (std::size_t s = 0; s < isis_slots.size(); ++s) {
    out.isis_downtime += isis_down.at(s).total();
  }
  for (std::size_t s = 0; s < syslog_down.slots().size(); ++s) {
    out.syslog_downtime += syslog_down.at(s).total();
  }
  for (std::size_t s = 0; s < isis_slots.size(); ++s) {
    const IntervalSet* other = syslog_down.find(isis_slots.link(s));
    if (other != nullptr && !other->empty() && !isis_down.at(s).empty()) {
      out.overlap_downtime += isis_down.at(s).intersect(*other).total();
    }
  }

  // Greedy 1-1 failure matching per link, chronological: each link's IS-IS
  // failure indices, in input order.
  const Buckets<std::size_t> isis_by_link(
      isis_slots.size(), isis.size(),
      [&](std::size_t i) { return isis_slots.of(isis[i].link); },
      [](std::size_t i) { return i; });
  for (std::size_t s = 0; s < isis_slots.size(); ++s) {
    const std::span<const std::size_t> v = isis_by_link[s];
    for (std::size_t k = 1; k < v.size(); ++k) {
      NETFAIL_ASSERT(isis[v[k - 1]].span.begin <= isis[v[k]].span.begin,
                     "match_failures needs each link's IS-IS failures in "
                     "chronological order");
    }
  }
  std::vector<bool> isis_used(isis.size(), false);
  std::vector<bool> syslog_matched(syslog.size(), false);

  for (std::size_t s = 0; s < syslog.size(); ++s) {
    const Failure& sf = syslog[s];
    // The link's list is chronological, so only failures starting inside
    // [begin - window, begin + window] can match: scan just that stretch.
    const std::span<const std::size_t> v = isis_by_link[isis_slots.of(sf.link)];
    const auto first = std::lower_bound(
        v.begin(), v.end(), sf.span.begin - options.window,
        [&](std::size_t i, TimePoint t) { return isis[i].span.begin < t; });
    for (auto p = first; p != v.end(); ++p) {
      const std::size_t i = *p;
      const Failure& isf = isis[i];
      if (isf.span.begin > sf.span.begin + options.window) break;
      if (isis_used[i]) continue;
      const Duration ds = isf.span.begin - sf.span.begin;
      const Duration de = isf.span.end - sf.span.end;
      const auto abs = [](Duration d) { return d.is_negative() ? -d : d; };
      if (abs(ds) <= options.window && abs(de) <= options.window) {
        isis_used[i] = true;
        syslog_matched[s] = true;
        out.pairs.emplace_back(i, s);
        ++out.matched;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < isis.size(); ++i) {
    if (!isis_used[i]) out.isis_only.push_back(i);
  }
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    if (!syslog_matched[s]) out.syslog_only.push_back(s);
  }

  // Partial overlaps and pure false-positive downtime among syslog-only.
  for (std::size_t s : out.syslog_only) {
    const Failure& sf = syslog[s];
    const IntervalSet* down = isis_down.find(sf.link);
    if (down != nullptr && down->overlaps(sf.span)) {
      ++out.syslog_partial;
      out.syslog_false_downtime +=
          sf.span.duration() - down->measure_within(sf.span);
    } else {
      out.syslog_false_downtime += sf.span.duration();
    }
  }
  return out;
}

}  // namespace netfail::analysis
