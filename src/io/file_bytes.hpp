// A whole input as one ByteSlice: the bytes the bundle's event records are
// slices of. Internal to src/io — the LSP capture and syslog readers share
// it, so both read a regular file the same way and a stream (a pipe, an
// istream) into the same kind of buffer.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "src/common/byte_slice.hpp"
#include "src/common/result.hpp"

namespace netfail::io {

/// Lanes a syslog file is parsed in (read_syslog_file's byte ranges).
inline constexpr std::size_t kReadLanes = 4;

/// Everything in the file at `path`. A non-empty regular file is mapped
/// read-only, and the slice's owner unmaps it when the last slice cut from
/// it lets go: no copy, and only the pages a parser touches are faulted
/// in. The mapping is registered for release_pages, so each reader drops
/// the pages behind its cursor and the next one to touch them faults them
/// back from the page cache: a mapped file costs resident memory only
/// where it is being read. The file must not be truncated while it is
/// mapped (a read past its new end raises SIGBUS). Anything else (a pipe,
/// an empty file, a file that cannot be mapped) is read to its end into
/// one block, which release_pages leaves alone.
Result<ByteSlice> read_file_bytes(const std::string& path);

/// What is left of `in`, read to its end into one block.
ByteSlice read_stream_bytes(std::istream& in);

}  // namespace netfail::io
