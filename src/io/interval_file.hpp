// IntervalSet persistence: one "begin_unix_ms <TAB> end_unix_ms" row per
// interval. Used for listener-offline windows (the sanitizer needs to know
// when the capture box was down) and any other operator-supplied window
// lists.
#pragma once

#include <iosfwd>
#include <string>

#include "src/common/interval_set.hpp"
#include "src/common/result.hpp"

namespace netfail::io {

void write_interval_file(const IntervalSet& set, std::ostream& out);
Status write_interval_file(const IntervalSet& set, const std::string& path);

/// A row that is not two millisecond counts inside kInputTimeRange, or
/// whose end precedes its begin, fails the whole read (kParseError).
Result<IntervalSet> read_interval_file(std::istream& in);
Result<IntervalSet> read_interval_file(const std::string& path);

}  // namespace netfail::io
