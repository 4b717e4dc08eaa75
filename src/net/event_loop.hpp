// A minimal poll(2)-based readiness loop for the ingest gateway's IO
// thread. Dependency-free and deliberately small: a handful of fds (one
// UDP socket, one listener, a few TCP connections) never justifies epoll's
// registration machinery, and poll keeps the loop portable to any POSIX.
//
// Thread model: add/remove/set_want_read and the callbacks run on the loop
// thread only. stop() and wake() are the only cross-thread entry points —
// both write one byte to a self-pipe, which is async-signal-safe, so the
// CLI's SIGINT handler may call them directly from the signal context.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/socket.hpp"

namespace netfail::net {

class EventLoop {
 public:
  /// `revents` is the poll(2) bitmask (POLLIN/POLLHUP/POLLERR...).
  using Callback = std::function<void(short revents)>;

  EventLoop();

  /// Register a callback for readiness on `fd`. The fd is borrowed, never
  /// closed by the loop.
  void add(int fd, Callback cb);
  void remove(int fd);
  /// Pause/resume read interest without dropping the registration — the
  /// TCP backpressure switch.
  void set_want_read(int fd, bool enable);
  /// Arm/disarm POLLOUT interest — off by default (a socket is writable
  /// almost always, so level-triggered write interest would spin). The
  /// HTTP responder arms it only while a response is partially written.
  void set_want_write(int fd, bool enable);

  /// Run until stop(). `on_wake` (optional) runs on the loop thread after
  /// every wakeup — the consumer uses it to request watermark resumes.
  void run();
  /// One poll iteration with the given timeout; returns false once stopped.
  bool run_once(int timeout_ms);

  void set_on_wake(std::function<void()> fn) { on_wake_ = std::move(fn); }

  /// Cross-thread (and signal-safe): make run() return soon.
  void stop();
  /// Cross-thread (and signal-safe): interrupt the current poll.
  void wake();

  bool stopped() const;

 private:
  struct Entry {
    int fd;
    bool want_read;
    bool want_write;
    Callback cb;
  };

  void drain_wake_pipe();

  std::vector<Entry> entries_;
  std::function<void()> on_wake_;
  Fd wake_read_;
  Fd wake_write_;
  // Written from other threads / signal handlers, read by the loop
  // (lock-free atomic on every supported target, so signal-safe).
  std::atomic<bool> stop_flag_{false};
};

}  // namespace netfail::net
