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

}  // namespace netfail
