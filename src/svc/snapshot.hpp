// svc snapshot — durable, versioned persistence of StreamEngine state.
//
// A snapshot file captures every analysis-bearing byte of one or more
// engine shards (per-link walker FSMs, reorder buffers, flap runs, the
// streaming extractor's LSP baselines, detector CUSUM/drift cells and the
// alert log) so that `netfail serve --state-dir` can stop at any point and
// a restarted process finishes the stream with a byte-identical digest.
//
// File layout (all integers little-endian, see binio.hpp):
//
//   magic[8]  "NFSNAPSH"
//   u32       format version (kSnapshotVersion; any other is rejected)
//   u64       body length
//   body      (below)
//   u64       FNV-1a 64 checksum of the body bytes
//
// Body:
//
//   u64       census fingerprint (link count + names, id order)
//   u32       shard count
//   u32       symbol count, then per symbol: u32 len + bytes
//   per shard: u64 section length + engine section
//
// Symbols: interned ids are process-local (dense in first-intern order),
// so the file carries its own dense symbol table — ids are assigned in
// first-use order while encoding, and restore interns each string and
// remaps every symbol field through the resulting table. Unordered
// containers are serialized in sorted order, which makes the encoding a
// pure function of engine state: the restart differential test compares
// snapshot bytes as well as digests.
//
// The section layout lives in snapshot.cpp as one walk per engine part
// (tracker, extractor, detector, engine) that names each field once. Two
// sinks run it: a writer over `const` state, and a validating reader over
// the scratch engine a restore decodes into. A field's C++ type fixes its
// wire width: bool and enums u8, times and durations i64 ms, LinkId and
// u32 u32, Symbol a u32 file-local id, size_t and u64 u64, int and i64
// i64, double f64, OsiSystemId 6 bytes, Ipv4Prefix u32 + u8.
//
// Failure modes are total: a truncated file, a flipped bit, or a header
// of any version other than kSnapshotVersion (older layouts are not
// migrated) each fail load()/restore with a specific error
// (kTruncated / kChecksumMismatch / kUnsupported) and the target engine is
// never left partially restored — decode runs against a scratch copy that
// is committed only on success. The checksum stops accidental damage, not
// a deliberate edit (anyone can reseal a file), so the reader also checks
// what the engine relies on and fails a restore with kParseError on:
//   - a link id outside the census, a prefix length above 32, a symbol id
//     outside the file's table, a flag byte other than 0/1, an enum byte
//     (direction, source, alert kind) out of range;
//   - a time, duration or other signed 64-bit value beyond ±2^52, or an
//     LSP count (int) outside [0, 65535];
//   - a container count larger than the bytes left, a repeated map or set
//     key, trailing bytes after the section;
//   - a tracker's pending buffer that is not a min-heap on (time, seq);
//   - detector active keys that are not exactly the drift cells with a
//     nonzero count, once each;
//   - engine, trackers and detector disagreeing on whether the stream
//     finished.
// A section for another shard fails with kInvalidArgument.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/sym.hpp"
#include "src/config/census.hpp"
#include "src/stream/engine.hpp"

namespace netfail::svc {

inline constexpr std::uint32_t kSnapshotVersion = 3;
inline constexpr char kSnapshotMagic[8] = {'N', 'F', 'S', 'N',
                                           'A', 'P', 'S', 'H'};
/// Conventional snapshot file name inside a --state-dir.
inline constexpr const char* kSnapshotFileName = "state.nfsnap";

/// Stable fingerprint of a census (FNV over link count and canonical link
/// names in id order). A snapshot only restores against the census it was
/// taken under — link ids are census-relative.
std::uint64_t census_fingerprint(const LinkCensus& census);

/// Serialize `shards` (one engine per shard, shard-index order) and write
/// the file atomically: the bytes land in `path` + ".tmp" and are renamed
/// over `path` only after a successful flush, so a crash mid-write leaves
/// the previous snapshot intact.
Status save_snapshot(const std::string& path,
                     std::span<const stream::StreamEngine* const> shards,
                     const LinkCensus& census);

/// A parsed, checksum-verified snapshot file. Loading validates the frame
/// (magic, version, length, checksum) and the census fingerprint up front;
/// restore_shard then decodes one shard section into a live engine.
class LoadedSnapshot {
 public:
  static Result<LoadedSnapshot> load(const std::string& path,
                                     const LinkCensus& census);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(sections_.size());
  }

  /// Replace `engine`'s analysis state with shard `shard`'s section. The
  /// engine must have been constructed against the same census and shard
  /// assignment (callbacks, options and census wiring are preserved). On
  /// any decode error the engine is unchanged.
  Status restore_shard(std::uint32_t shard,
                       stream::StreamEngine& engine) const;

 private:
  std::string body_;
  std::vector<Symbol> symbols_;  // file-local id -> process symbol
  std::vector<std::pair<std::size_t, std::size_t>> sections_;  // offset, len
};

}  // namespace netfail::svc
