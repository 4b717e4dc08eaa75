// A synthetic LSP capture with every awkward input the extractor meets:
// bad checksums, truncated records, stale sequence numbers, purges,
// unnameable sources, unknown neighbors and prefixes, a multi-link pair,
// and a load that shifts between sources. Batch-extraction and stream
// lookahead tests run their schedules over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/time.hpp"
#include "src/config/census.hpp"
#include "src/isis/listener.hpp"

namespace netfail::isis {

struct HostileParams {
  std::uint64_t seed = 1;
  std::size_t routers = 9;    // sources; at most 9 (census below)
  std::size_t records = 0;
  // Records [solo_from, solo_until) all come from h0, uncorrupted (a
  // corrupt source id would count as another source).
  std::size_t solo_from = SIZE_MAX;
  std::size_t solo_until = SIZE_MAX;
};

struct HostileCapture {
  LinkCensus census;
  TimeRange period;  // the census links' lifetime
  std::vector<LspRecord> records;
};

/// Routers h0..h8 on a ring of /31 links, with a second h0-h1 link (a
/// multi-link pair); see hostile_capture.cpp for what goes wrong when.
HostileCapture make_hostile(const HostileParams& params);

}  // namespace netfail::isis
