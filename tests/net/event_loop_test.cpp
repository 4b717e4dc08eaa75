// EventLoop dispatch, read-interest pausing, and the cross-thread
// stop()/wake() path the SIGINT handler depends on.
#include "src/net/event_loop.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>

namespace netfail::net {
namespace {

struct Pipe {
  Fd read_end;
  Fd write_end;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_end = Fd(fds[0]);
    write_end = Fd(fds[1]);
  }
  void put(char c) { ASSERT_EQ(::write(write_end.get(), &c, 1), 1); }
};

TEST(EventLoop, DispatchesReadableFds) {
  EventLoop loop;
  Pipe p;
  int fired = 0;
  loop.add(p.read_end.get(), [&](short) {
    char c;
    ASSERT_EQ(::read(p.read_end.get(), &c, 1), 1);
    ++fired;
  });
  p.put('x');
  EXPECT_TRUE(loop.run_once(100));
  EXPECT_EQ(fired, 1);
  // Nothing pending: times out without dispatching.
  EXPECT_TRUE(loop.run_once(0));
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, WantReadPausesDispatch) {
  EventLoop loop;
  Pipe p;
  int fired = 0;
  loop.add(p.read_end.get(), [&](short) {
    char c;
    ASSERT_EQ(::read(p.read_end.get(), &c, 1), 1);
    ++fired;
  });
  loop.set_want_read(p.read_end.get(), false);
  p.put('x');
  EXPECT_TRUE(loop.run_once(0));  // data pending but interest paused
  EXPECT_EQ(fired, 0);
  loop.set_want_read(p.read_end.get(), true);
  EXPECT_TRUE(loop.run_once(100));
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, RemoveStopsDispatch) {
  EventLoop loop;
  Pipe p;
  int fired = 0;
  loop.add(p.read_end.get(), [&](short) { ++fired; });
  loop.remove(p.read_end.get());
  p.put('x');
  EXPECT_TRUE(loop.run_once(0));
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, StopFromAnotherThreadInterruptsRun) {
  EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  loop.run();  // blocks in poll(-1) until the stopper wakes it
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, WakeRunsOnWakeHook) {
  EventLoop loop;
  int woken = 0;
  loop.set_on_wake([&] { ++woken; });
  loop.wake();
  EXPECT_TRUE(loop.run_once(100));
  EXPECT_GE(woken, 1);
}

}  // namespace
}  // namespace netfail::net
