#include "src/common/byte_slice.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"

namespace netfail {
namespace {

std::uintptr_t page_size() {
  static const auto size = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::uintptr_t page_floor(std::uintptr_t at) { return at & ~(page_size() - 1); }

/// The mappings whose pages may be dropped. A leaf lock: nothing else is
/// taken under it. It is held across madvise too, so a mapping cannot be
/// unregistered, unmapped and its addresses reused by the heap between the
/// check and the drop.
struct MappedRanges {
  struct Range {
    std::uintptr_t begin;
    std::uintptr_t end;
  };

  static MappedRanges& instance() {
    static MappedRanges* ranges = new MappedRanges;  // netfail-lint: allow(naked-new) leaked: a mapping may be unmapped during static destruction
    return *ranges;
  }

  sync::Mutex mapped_ranges_mu;
  std::vector<Range> ranges NETFAIL_GUARDED_BY(mapped_ranges_mu);
};

}  // namespace

void register_mapping(const char* begin, std::size_t size) {
  MappedRanges& m = MappedRanges::instance();
  const auto at = reinterpret_cast<std::uintptr_t>(begin);
  sync::MutexLock lock(m.mapped_ranges_mu);
  m.ranges.push_back({at, at + size});
}

void unregister_mapping(const char* begin) {
  MappedRanges& m = MappedRanges::instance();
  const auto at = reinterpret_cast<std::uintptr_t>(begin);
  sync::MutexLock lock(m.mapped_ranges_mu);
  std::erase_if(m.ranges, [at](const MappedRanges::Range& r) {
    return r.begin == at;
  });
}

std::size_t release_pages(std::string_view consumed) {
  const auto begin = reinterpret_cast<std::uintptr_t>(consumed.data());
  MappedRanges& m = MappedRanges::instance();
  sync::MutexLock lock(m.mapped_ranges_mu);
  for (const MappedRanges::Range& r : m.ranges) {
    if (begin < r.begin || begin >= r.end) continue;
    const std::uintptr_t first = page_floor(begin + page_size() - 1);
    const std::uintptr_t last = page_floor(
        begin + std::min<std::uintptr_t>(consumed.size(), r.end - begin));
    if (first >= last) return 0;
    if (::madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_DONTNEED) != 0) {
      return 0;
    }
    return last - first;
  }
  return 0;
}

void ReleaseBehind::release_to(std::uintptr_t end) {
  release_pages(std::string_view(reinterpret_cast<const char*>(from_),
                                 end - from_));
  // The page `end` falls in holds bytes not yet consumed: it goes with the
  // next stride.
  from_ = page_floor(end);
}

}  // namespace netfail
