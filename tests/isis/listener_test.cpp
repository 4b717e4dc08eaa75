#include "src/isis/listener.hpp"

#include <gtest/gtest.h>

namespace netfail::isis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }
using Pdu = std::vector<std::uint8_t>;

TEST(Listener, RecordsInOrder) {
  Listener l;
  l.deliver(at(1), Pdu{0x01});
  l.deliver(at(2), Pdu{0x02});
  ASSERT_EQ(l.records().size(), 2u);
  EXPECT_EQ(l.records()[0].received_at, at(1));
  EXPECT_EQ(l.records()[1].bytes.span()[0], 0x02);
}

TEST(Listener, DropsDuringOfflineWindows) {
  Listener l;
  IntervalSet offline;
  offline.add(TimeRange{at(10), at(20)});
  l.set_offline_windows(offline);

  l.deliver(at(5), Pdu{0x01});
  l.deliver(at(15), Pdu{0x02});  // dropped
  l.deliver(at(19), Pdu{0x03});  // dropped (end is exclusive)
  l.deliver(at(20), Pdu{0x04});  // back online
  EXPECT_EQ(l.records().size(), 2u);
  EXPECT_EQ(l.dropped_count(), 2u);
  EXPECT_TRUE(l.is_offline(at(10)));
  EXPECT_FALSE(l.is_offline(at(20)));
}

TEST(Listener, VirtualRefreshAccounting) {
  Listener l;
  l.deliver(at(1), Pdu{0x01});
  l.add_virtual_refreshes(100);
  l.add_virtual_refreshes(50);
  EXPECT_EQ(l.total_updates(), 151u);
  EXPECT_EQ(l.delivered_count(), 1u);
}

TEST(Listener, MultipleOfflineWindows) {
  Listener l;
  IntervalSet offline;
  offline.add(TimeRange{at(10), at(20)});
  offline.add(TimeRange{at(30), at(40)});
  l.set_offline_windows(offline);
  EXPECT_TRUE(l.is_offline(at(15)));
  EXPECT_FALSE(l.is_offline(at(25)));
  EXPECT_TRUE(l.is_offline(at(35)));
}

}  // namespace
}  // namespace netfail::isis
