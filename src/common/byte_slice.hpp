// netfail::ByteSlice — an immutable run of bytes that shares its owner.
//
// The event records of a bundle (an LSP's PDU, a syslog line's text) are
// slices of their file's bytes (a read-only mapping, or one buffer for a
// stream): the slice holds an aliasing shared_ptr to that owner plus a
// length, so loading a file makes no heap object per record, and the
// mapping lives exactly as long as the last record that points into it.
// A record received live (a datagram, a TCP frame, a simulated delivery)
// is copied into a block of its own, one allocation as before. Copying a
// slice copies a reference, never the bytes; nothing can write through one.
//
// A slice of a mapped file need not stay resident. Each reader of an event
// file walks it front to back once, and may drop the whole pages behind its
// cursor (release_pages, ReleaseBehind below). The mapping is read-only and
// private, so a dropped page is faulted back from the page cache, byte for
// byte, when a later reader touches it: a slice's bytes never change, only
// the resident set and the count of minor faults do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>

namespace netfail {

class ByteSlice {
 public:
  ByteSlice() = default;

  /// `size` bytes of `owner`'s block from `offset`, which the caller has
  /// checked lie inside it; shares its lifetime.
  ByteSlice(const std::shared_ptr<const char>& owner, std::size_t offset,
            std::size_t size)
      : data_(owner, owner.get() + offset), size_(size) {}

  /// A copy of `bytes` in one block of its own (none when empty).
  static ByteSlice copy_of(std::string_view bytes) {
    ByteSlice out;
    if (bytes.empty()) return out;
    std::shared_ptr<char[]> block =
        std::make_shared_for_overwrite<char[]>(bytes.size());
    char* const first = block.get();
    std::memcpy(first, bytes.data(), bytes.size());
    out.data_ = std::shared_ptr<const char>(std::move(block), first);
    out.size_ = bytes.size();
    return out;
  }
  static ByteSlice copy_of(std::span<const std::uint8_t> bytes) {
    return copy_of(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  }

  std::size_t size() const { return size_; }
  /// `size` of these bytes from `offset` (within size()), sharing the same
  /// owner.
  ByteSlice substr(std::size_t offset, std::size_t size) const {
    return ByteSlice(data_, offset, size);
  }
  std::string_view view() const { return {data_.get(), size_}; }
  std::span<const std::uint8_t> span() const {
    return {reinterpret_cast<const std::uint8_t*>(data_.get()), size_};
  }

  /// Equal bytes, wherever they live.
  friend bool operator==(const ByteSlice& a, const ByteSlice& b) {
    return a.view() == b.view();
  }

 private:
  std::shared_ptr<const char> data_;
  std::size_t size_ = 0;
};

/// Registers `size` bytes from `begin`, a read-only MAP_PRIVATE file
/// mapping, as one whose pages release_pages may drop. The mapping's owner
/// calls unregister_mapping(begin) before it unmaps them.
void register_mapping(const char* begin, std::size_t size);
void unregister_mapping(const char* begin);

/// Drops from the resident set the whole pages of `consumed`, bytes a
/// reader is done with, and returns how many bytes that was. It acts only
/// when `consumed` starts inside a registered mapping, and stops at that
/// mapping's end; on anything else (a copy_of block, a stream's buffer) it
/// does nothing and returns 0. That guard is what makes it safe: dropping
/// a page of a clean file mapping loses nothing, while dropping a page of
/// heap memory zeroes it.
std::size_t release_pages(std::string_view consumed);

/// A sequential reader's release cursor: it is told of each run of bytes
/// the reader is done with, in address order as a reader of one mapping
/// sees them, and hands the pages behind them to release_pages once they
/// add up to kStride. The first run it is told of starts it, unless it was
/// started at a given byte. Runs that are slices of separate copy_of
/// blocks release nothing, as release_pages leaves those alone.
class ReleaseBehind {
 public:
  /// One call per stride keeps the calls, and the lock they take, rare.
  static constexpr std::size_t kStride = std::size_t{1} << 20;

  ReleaseBehind() = default;
  explicit ReleaseBehind(const char* start)
      : from_(reinterpret_cast<std::uintptr_t>(start)) {}

  /// The reader is done with `bytes` and everything before them.
  void consumed(std::string_view bytes) {
    const auto end =
        reinterpret_cast<std::uintptr_t>(bytes.data()) + bytes.size();
    if (from_ == 0) from_ = reinterpret_cast<std::uintptr_t>(bytes.data());
    if (end >= from_ + kStride) release_to(end);
  }

 private:
  void release_to(std::uintptr_t end);

  std::uintptr_t from_ = 0;  // the first byte not yet released; 0 unstarted
};

}  // namespace netfail
