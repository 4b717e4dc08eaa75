// stream::ShardMap — the stable partition function behind sharded ingest.
//
// Scaling the gateway to N consumer shards only preserves the serial
// analysis result if every event concerning one link lands on exactly one
// shard (the trackers, the detector's CUSUM/drift cells and the FSMs are
// all strictly per-link state). The shard of a link is derived from the
// census link's canonical *name* ("hostA:ifA|hostB:ifB"), not from interned
// symbol ids or std::hash: symbol ids depend on intern order and
// std::hash is implementation-defined, so neither survives a process
// restart or a library upgrade. FNV-1a over the name bytes is fixed by
// this header forever — the sharded differential tests pin golden values.
//
// Syslog lines are routed *before* extraction: the dispatcher reads the
// parse the received line already carries (the same fields the extractor
// reads; nothing here tokenizes) and resolves (reporter, interface)
// through the census, so both endpoints' reports of one link reach the
// same shard. Lines that do not resolve to a census link carry no
// per-link analysis state; they are spread deterministically
// (reporter-name hash, or raw-byte hash for unparsable lines) so that the
// per-shard extraction stats still sum to the serial run's stats.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/config/census.hpp"
#include "src/syslog/collector.hpp"

namespace netfail::stream {

/// FNV-1a, 64-bit, over raw bytes. Process- and platform-stable by
/// construction (the constants are the algorithm); never replace with
/// std::hash, whose value is unspecified and varies across
/// implementations.
constexpr std::uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnv64Prime = 0x100000001b3ull;

constexpr std::uint64_t stable_hash64(std::string_view bytes) {
  std::uint64_t h = kFnv64OffsetBasis;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv64Prime;
  }
  return h;
}

/// The partition function: census link -> shard, plus the received-line
/// router the gateway's IO thread uses. Immutable after construction;
/// safe to share across threads by const reference.
class ShardMap {
 public:
  /// `shard_count` >= 1. The census must outlive the map (links are
  /// re-resolved when routing received lines).
  ShardMap(const LinkCensus& census, std::uint32_t shard_count);

  std::uint32_t shard_count() const { return shard_count_; }

  /// Shard owning `link`. Precomputed; O(1).
  std::uint32_t shard_of(LinkId link) const {
    return by_link_[link.index()];
  }

  /// Shard for an arbitrary stable name (used for links at construction
  /// and for unresolved-reporter fallback at dispatch).
  std::uint32_t shard_of_name(std::string_view name) const {
    return static_cast<std::uint32_t>(stable_hash64(name) % shard_count_);
  }

  /// Route one received syslog line: resolve its parsed (reporter,
  /// interface) through the census and return the owning shard;
  /// deterministic fallbacks for lines that do not resolve (see file
  /// comment). Total: every line gets a shard.
  std::uint32_t shard_of(const syslog::ReceivedLine& rec) const;

  /// True when `shard` owns `link` — the engine-side partition filter.
  bool owns(std::uint32_t shard, LinkId link) const {
    return by_link_[link.index()] == shard;
  }

 private:
  const LinkCensus* census_;
  std::uint32_t shard_count_;
  std::vector<std::uint32_t> by_link_;  // indexed by LinkId::index()
};

}  // namespace netfail::stream
