#include "src/net/event_loop.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/common/assert.hpp"

namespace netfail::net {

EventLoop::EventLoop() {
  int fds[2];
  NETFAIL_ASSERT(::pipe(fds) == 0, "event loop self-pipe");
  wake_read_ = Fd(fds[0]);
  wake_write_ = Fd(fds[1]);
  (void)set_nonblocking(wake_read_);
  (void)set_nonblocking(wake_write_);
}

void EventLoop::add(int fd, Callback cb) {
  entries_.push_back(Entry{fd, true, false, std::move(cb)});
}

void EventLoop::remove(int fd) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [fd](const Entry& e) { return e.fd == fd; }),
                 entries_.end());
}

void EventLoop::set_want_read(int fd, bool enable) {
  for (Entry& e : entries_) {
    if (e.fd == fd) e.want_read = enable;
  }
}

void EventLoop::set_want_write(int fd, bool enable) {
  for (Entry& e : entries_) {
    if (e.fd == fd) e.want_write = enable;
  }
}

void EventLoop::drain_wake_pipe() {
  char buf[64];
  while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

bool EventLoop::run_once(int timeout_ms) {
  if (stop_flag_.load(std::memory_order_acquire)) return false;

  std::vector<pollfd> fds;
  fds.reserve(entries_.size() + 1);
  fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
  for (const Entry& e : entries_) {
    short events = 0;
    if (e.want_read) events |= POLLIN;
    if (e.want_write) events |= POLLOUT;
    if (events != 0) fds.push_back(pollfd{e.fd, events, 0});
  }

  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0 && errno != EINTR) return !stop_flag_.load(std::memory_order_acquire);

  if (fds[0].revents != 0) drain_wake_pipe();
  if (on_wake_) on_wake_();
  if (stop_flag_.load(std::memory_order_acquire)) return false;

  // Dispatch against a snapshot of ready fds: callbacks may add/remove
  // entries, so re-find each entry by fd before invoking.
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    const int fd = fds[i].fd;
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [fd](const Entry& e) { return e.fd == fd; });
    if (it != entries_.end() && it->cb) it->cb(fds[i].revents);
    if (stop_flag_.load(std::memory_order_acquire)) return false;
  }
  return true;
}

void EventLoop::run() {
  while (run_once(-1)) {
  }
}

void EventLoop::stop() {
  stop_flag_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::wake() {
  const char b = 1;
  // EAGAIN (pipe already full of wakeups) is success for our purposes.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &b, 1);
}

bool EventLoop::stopped() const {
  return stop_flag_.load(std::memory_order_acquire);
}

}  // namespace netfail::net
