// Dense per-link tables for the comparison (Tables 2-6) and the
// reconstruction.
//
// Census link ids are small dense indices, so a table keyed by link is a
// vector: slot i holds link i, and one last slot holds the invalid id,
// which a std::map keyed by LinkId sorts after every valid one. Walking
// the slots in order therefore visits links in LinkId order, as iterating
// the maps these tables replace did, so every sum over links keeps its
// order. Grouping is a stable counting sort: a bucket holds its items in
// input order, so a sort within a bucket sees what the map's vector saw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/analysis/failure.hpp"
#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/common/interval_set.hpp"

namespace netfail::analysis {

/// The slots of a table over the valid ids 0 .. links - 1 and the invalid
/// id, in LinkId order.
class LinkSlots {
 public:
  LinkSlots() = default;
  explicit LinkSlots(std::size_t links) : links_(links) {}

  /// Slots for every link `link_of(i)` names, i in [0, n).
  template <typename LinkOf>
  static LinkSlots covering(std::size_t n, LinkOf link_of) {
    std::size_t links = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const LinkId link = link_of(i);
      if (link.valid() && link.index() >= links) links = link.index() + 1;
    }
    return LinkSlots(links);
  }

  std::size_t size() const { return links_ + 1; }
  /// `link`'s slot; size() (none) for a valid id the table does not cover.
  std::size_t of(LinkId link) const {
    if (!link.valid()) return links_;
    return link.index() < links_ ? link.index() : size();
  }
  /// The link of slot `slot` < size().
  LinkId link(std::size_t slot) const {
    return slot < links_ ? LinkId(static_cast<LinkId::underlying_type>(slot))
                         : LinkId::invalid();
  }

  /// Slots of (link, direction) pairs: two per link slot, down first.
  std::size_t directed_size() const { return 2 * size(); }
  /// (link, dir)'s slot; directed_size() (none) when of(link) has none.
  std::size_t of(LinkId link, LinkDirection dir) const {
    const std::size_t s = of(link);
    if (s == size()) return directed_size();
    return 2 * s + (dir == LinkDirection::kUp ? 1 : 0);
  }

 private:
  std::size_t links_ = 0;
};

/// Items grouped by a dense slot: bucket k holds, in input order, what
/// `make(i)` gives for each i in [0, n) that `slot_of(i)` puts in slot k.
/// An item whose slot is `slots` or more is left out.
template <typename T>
class Buckets {
 public:
  Buckets() = default;

  template <typename SlotOf, typename Make>
  Buckets(std::size_t slots, std::size_t n, SlotOf slot_of, Make make)
      : begin_(slots + 1, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = slot_of(i);
      if (s < slots) ++begin_[s + 1];
    }
    for (std::size_t s = 1; s <= slots; ++s) begin_[s] += begin_[s - 1];
    items_.resize(begin_[slots]);
    // Fill through begin_[s] as bucket s's cursor, which leaves it at the
    // start of bucket s + 1; then shift the starts back into place.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = slot_of(i);
      if (s < slots) items_[begin_[s]++] = make(i);
    }
    for (std::size_t s = slots; s > 0; --s) begin_[s] = begin_[s - 1];
    begin_[0] = 0;
  }

  std::size_t slots() const { return begin_.empty() ? 0 : begin_.size() - 1; }
  /// Bucket `slot`; empty for a slot past slots().
  std::span<const T> operator[](std::size_t slot) const {
    if (slot >= slots()) return {};
    return {items_.data() + begin_[slot], items_.data() + begin_[slot + 1]};
  }
  std::span<T> operator[](std::size_t slot) {
    if (slot >= slots()) return {};
    return {items_.data() + begin_[slot], items_.data() + begin_[slot + 1]};
  }
  /// Every item, bucket after bucket.
  std::span<const T> all() const { return items_; }
  std::span<T> all() { return items_; }

 private:
  std::vector<std::uint32_t> begin_;
  std::vector<T> items_;
};

/// Per-link downtime of some failures, dense: the one per-link downtime
/// table (Tables 4, 6 and 7, availability, total downtime), one slot per
/// link. A slot also counts its failures, so a link whose failures all have
/// zero length (no downtime) is still told apart from a link with none.
class LinkDowntime {
 public:
  LinkDowntime() = default;
  explicit LinkDowntime(const std::vector<Failure>& failures)
      : slots_(LinkSlots::covering(
            failures.size(), [&](std::size_t i) { return failures[i].link; })),
        sets_(slots_.size()),
        failures_(slots_.size(), 0) {
    for (const Failure& f : failures) {
      const std::size_t s = slots_.of(f.link);
      sets_[s].add(f.span);
      ++failures_[s];
    }
  }

  const LinkSlots& slots() const { return slots_; }
  /// Slot `slot`'s downtime (empty for a link without failures).
  const IntervalSet& at(std::size_t slot) const { return sets_[slot]; }
  /// Slot `slot`'s number of failures.
  std::size_t failures(std::size_t slot) const { return failures_[slot]; }
  /// `link`'s downtime; null when the table does not cover `link`.
  const IntervalSet* find(LinkId link) const {
    const std::size_t s = slots_.of(link);
    return s < sets_.size() ? &sets_[s] : nullptr;
  }

 private:
  LinkSlots slots_;
  std::vector<IntervalSet> sets_;
  std::vector<std::uint32_t> failures_;
};

}  // namespace netfail::analysis
