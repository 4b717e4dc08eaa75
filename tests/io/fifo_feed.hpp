// Reading a reader's input through a FIFO: a file that cannot be mapped,
// which the readers read to its end instead.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <future>
#include <string_view>
#include <thread>

namespace netfail::io {

/// What `read(path)` returns when `path` names a new FIFO that this thread
/// feeds `bytes` into while `read` runs on a task. A reader that returns
/// without opening the FIFO is not waited for.
template <typename Read>
auto read_through_fifo(const std::filesystem::path& path,
                       std::string_view bytes, Read read) {
  std::filesystem::remove(path);
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << "mkfifo " << path;
  auto reading = std::async(std::launch::async,
                            [&read, p = path.string()] { return read(p); });
  // Open without blocking: ENXIO until the reader has the FIFO open.
  int fd = -1;
  while (fd < 0 && reading.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
    fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (fd >= 0) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    for (std::size_t at = 0; at < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      at += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
  return reading.get();
}

}  // namespace netfail::io
