#include "src/isis/listener.hpp"

#include "src/common/assert.hpp"

namespace netfail::isis {

void Listener::deliver(TimePoint t, std::span<const std::uint8_t> bytes) {
  NETFAIL_ASSERT(records_.empty() || records_.back().received_at <= t,
                 "LSPs must be delivered in time order");
  if (is_offline(t)) {
    ++dropped_;
    return;
  }
  records_.push_back(LspRecord{t, ByteSlice::copy_of(bytes)});
}

}  // namespace netfail::isis
