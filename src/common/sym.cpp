#include "src/common/sym.hpp"

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace netfail::sym {
namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One generation of the open-addressing index: a power-of-two array of
/// atomic symbol ids. Readers probe lock-free; only writers (under the table
/// mutex) insert or build replacement generations.
struct Index {
  explicit Index(std::size_t capacity)
      : mask(capacity - 1), slots(new std::atomic<std::uint32_t>[capacity]) {
    for (std::size_t i = 0; i < capacity; ++i) {
      slots[i].store(kEmptySlot, std::memory_order_relaxed);
    }
  }
  std::size_t mask;
  std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
};

/// The process-wide name table: an append-only arena of NUL-terminated
/// bytes, a dense id -> entry map in fixed-size blocks (so entry addresses
/// never move), and the probe index.
class NameTable {
 public:
  static NameTable& instance() {
    static NameTable* table = new NameTable();  // never destroyed: Symbols
    return *table;                              // may outlive static dtors
  }

  std::uint32_t intern(std::string_view s) {
    const std::uint64_t hash = fnv1a(s);
    // Fast path: lock-free probe of the published index.
    const std::uint32_t found = probe(index_.load(std::memory_order_acquire), hash, s);
    if (found != kEmptySlot) return found;

    sync::MutexLock lock(mu_);
    // Re-probe under the lock: another writer may have inserted `s`.
    Index* idx = index_.load(std::memory_order_relaxed);
    const std::uint32_t again = probe(idx, hash, s);
    if (again != kEmptySlot) return again;

    const std::uint32_t id = size_.load(std::memory_order_relaxed);
    NETFAIL_ASSERT(id != kEmptySlot, "interner full");
    store_entry(id, s);
    // Publish the id to view()/c_str() before any index slot can hand it to
    // a lock-free find(): a reader that finds the id must be able to read
    // it back.
    size_.store(id + 1, std::memory_order_release);
    if ((id + 1) * 10 >= (idx->mask + 1) * 7) {
      grow(idx);  // rehashes every id below size_, the new one included
    } else {
      insert(idx, hash, id);
    }
    return id;
  }

  std::uint32_t find(std::string_view s) const {
    return probe(index_.load(std::memory_order_acquire), fnv1a(s), s);
  }

  std::string_view view(std::uint32_t id) const {
    if (id >= size_.load(std::memory_order_acquire)) return {};
    const Entry& e = entry(id);
    return {e.data, e.len};
  }

  const char* c_str(std::uint32_t id) const {
    if (id >= size_.load(std::memory_order_acquire)) return "";
    return entry(id).data;
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    const char* data;
    std::uint32_t len;
  };

  static constexpr std::size_t kBlockShift = 10;  // 1024 entries per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kMaxBlocks = 1 << 16;  // 64M symbols, plenty
  static constexpr std::size_t kArenaChunk = 64 * 1024;

  NameTable() : index_(new Index(1024)) {
    for (auto& b : blocks_) b.store(nullptr, std::memory_order_relaxed);
    const std::uint32_t empty = intern("");
    NETFAIL_ASSERT(empty == 0, "empty string must be id 0");
  }

  const Entry& entry(std::uint32_t id) const {
    Entry* block = blocks_[id >> kBlockShift].load(std::memory_order_acquire);
    return block[id & (kBlockSize - 1)];
  }

  /// Lock-free lookup in one index generation. Returns the id or kEmptySlot.
  std::uint32_t probe(const Index* idx, std::uint64_t hash,
                      std::string_view s) const {
    for (std::size_t i = hash & idx->mask;; i = (i + 1) & idx->mask) {
      const std::uint32_t id = idx->slots[i].load(std::memory_order_acquire);
      if (id == kEmptySlot) return kEmptySlot;
      const Entry& e = entry(id);
      if (e.len == s.size() && std::memcmp(e.data, s.data(), s.size()) == 0) {
        return id;
      }
    }
  }

  /// Writer-only (mutex held): copy the bytes into the arena and publish the
  /// entry for `id`. The release store of the index slot (or of size_, for
  /// view()-by-id readers) orders these writes for readers.
  void store_entry(std::uint32_t id, std::string_view s)
      NETFAIL_REQUIRES(mu_) {
    if (arena_.empty() || arena_used_ + s.size() + 1 > arena_.back().size) {
      const std::size_t cap = std::max(kArenaChunk, s.size() + 1);
      arena_.push_back(Chunk{std::unique_ptr<char[]>(new char[cap]), cap});
      arena_used_ = 0;
    }
    char* dst = arena_.back().bytes.get() + arena_used_;
    std::memcpy(dst, s.data(), s.size());
    dst[s.size()] = '\0';
    arena_used_ += s.size() + 1;

    const std::size_t b = id >> kBlockShift;
    NETFAIL_ASSERT(b < kMaxBlocks, "interner block space exhausted");
    Entry* block = blocks_[b].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new Entry[kBlockSize];
      blocks_[b].store(block, std::memory_order_release);
    }
    block[id & (kBlockSize - 1)] = Entry{dst, static_cast<std::uint32_t>(s.size())};
  }

  /// Writer-only: insert an id into one index generation.
  static void insert(Index* idx, std::uint64_t hash, std::uint32_t id) {
    std::size_t i = hash & idx->mask;
    while (idx->slots[i].load(std::memory_order_relaxed) != kEmptySlot) {
      i = (i + 1) & idx->mask;
    }
    idx->slots[i].store(id, std::memory_order_release);
  }

  /// Writer-only: double the index. The old generation is retired, never
  /// freed, so concurrent readers mid-probe stay valid.
  void grow(Index* old) NETFAIL_REQUIRES(mu_) {
    auto next = std::make_unique<Index>((old->mask + 1) * 2);
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    for (std::uint32_t id = 0; id < n; ++id) {
      const Entry& e = entry(id);
      insert(next.get(), fnv1a({e.data, e.len}), id);
    }
    retired_.push_back(std::unique_ptr<Index>(old));
    index_.store(next.release(), std::memory_order_release);
  }

  struct Chunk {
    std::unique_ptr<char[]> bytes;
    std::size_t size;
  };

  // index_/size_/blocks_ are written under mu_ but read lock-free via the
  // acquire/release publication protocol described in sym.hpp — atomics,
  // not GUARDED_BY, is the honest annotation for them.
  sync::Mutex mu_;
  std::atomic<Index*> index_;
  std::atomic<std::uint32_t> size_{0};
  std::atomic<Entry*> blocks_[kMaxBlocks];
  std::vector<Chunk> arena_ NETFAIL_GUARDED_BY(mu_);   // writer bookkeeping
  std::size_t arena_used_ NETFAIL_GUARDED_BY(mu_) = 0; // used in arena_.back()
  std::vector<std::unique_ptr<Index>> retired_ NETFAIL_GUARDED_BY(mu_);
};

}  // namespace

std::uint32_t intern_id(std::string_view s) {
  return NameTable::instance().intern(s);
}

std::uint32_t find_id(std::string_view s) {
  return NameTable::instance().find(s);
}

std::string_view id_view(std::uint32_t id) {
  return NameTable::instance().view(id);
}

const char* id_c_str(std::uint32_t id) { return NameTable::instance().c_str(id); }

std::size_t table_size() { return NameTable::instance().size(); }

}  // namespace netfail::sym
