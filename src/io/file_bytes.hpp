// A whole input read into one block, as a ByteSlice: the buffer the
// bundle's event records are slices of. Internal to src/io — the LSP
// capture and syslog readers share it, so both read a regular file the same
// way and a stream (a pipe, an istream) into the same kind of buffer.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "src/common/byte_slice.hpp"
#include "src/common/result.hpp"

namespace netfail::io {

/// Lanes a regular file is read in (concurrent slices), and a syslog file
/// is parsed in (read_syslog_file's byte ranges).
inline constexpr std::size_t kReadLanes = 4;

/// Everything in the file at `path`, in one block that is not zero-filled
/// first (a fresh buffer is paid for in page faults, and the reads fill
/// every byte). A regular file is read with one `fstat`-sized buffer in
/// `kReadLanes` slices read concurrently (the page faults, not the copy,
/// dominate a serial read); anything else (a pipe, say) is read to its end.
Result<ByteSlice> read_file_bytes(const std::string& path);

/// What is left of `in`, read to its end into one block.
ByteSlice read_stream_bytes(std::istream& in);

}  // namespace netfail::io
