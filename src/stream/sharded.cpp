#include "src/stream/sharded.hpp"

#include "src/common/assert.hpp"

namespace netfail::stream {

ShardMap::ShardMap(const LinkCensus& census, std::uint32_t shard_count)
    : census_(&census), shard_count_(shard_count) {
  NETFAIL_ASSERT(shard_count >= 1, "ShardMap needs at least one shard");
  by_link_.resize(census.size());
  for (const CensusLink& link : census.links()) {
    by_link_[link.id.index()] = shard_of_name(link.name);
  }
}

std::uint32_t ShardMap::shard_of(const syslog::ReceivedLine& rec) const {
  if (shard_count_ == 1) return 0;
  const syslog::LineParse& parsed = rec.parse();
  if (parsed.status != syslog::ParseStatus::kOk) {
    // Unparsable / untracked shape: no per-link state downstream, any
    // deterministic spread keeps the summed stats exact.
    return static_cast<std::uint32_t>(stable_hash64(rec.line()) % shard_count_);
  }
  if (const std::optional<LinkId> link =
          census_->find_by_interface(parsed.reporter, parsed.interface)) {
    return shard_of(*link);
  }
  // Parsed but unresolved against the census (the extractor will count it
  // as unresolved_links on whichever shard gets it).
  return shard_of_name(parsed.reporter.view());
}

}  // namespace netfail::stream
