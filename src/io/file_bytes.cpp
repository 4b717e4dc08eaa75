#include "src/io/file_bytes.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <future>
#include <istream>
#include <memory>
#include <system_error>

namespace netfail::io {
namespace {

/// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

/// The first `size` bytes of `block`, filled by the caller, as one slice.
ByteSlice whole(const std::shared_ptr<char[]>& block, std::size_t size) {
  return ByteSlice(std::shared_ptr<const char>(block, block.get()), 0, size);
}

/// Fill `out[0, size)` from the open file `fd`, in `kReadLanes` equal
/// slices read concurrently. False if any slice comes back short.
bool read_slices(int fd, char* out, std::size_t size) {
  auto read_slice = [fd, out, size](std::size_t i) {
    std::size_t at = size * i / kReadLanes;
    const std::size_t end = size * (i + 1) / kReadLanes;
    while (at < end) {
      const ssize_t n = ::pread(fd, out + at, end - at, static_cast<off_t>(at));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      at += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::array<std::future<bool>, kReadLanes> tasks;
  for (std::size_t i = 1; i < kReadLanes; ++i) {
    tasks[i] = std::async(std::launch::async, read_slice, i);
  }
  bool ok = read_slice(0);
  for (std::size_t i = 1; i < kReadLanes; ++i) ok = tasks[i].get() && ok;
  return ok;
}

}  // namespace

Result<ByteSlice> read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return make_error(ErrorCode::kNotFound, "cannot open " + path);
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    const auto size = static_cast<std::size_t>(st.st_size);
    const auto block = std::make_shared_for_overwrite<char[]>(size);
    if (!read_slices(fd, block.get(), size)) {
      return make_error(ErrorCode::kInternal, "short read of " + path);
    }
    return whole(block, size);
  }
  // Not a regular file: no size to split by, so read it to its end.
  std::string rest;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return make_error(ErrorCode::kInternal,
                        "cannot read " + path + ": " +
                            std::system_category().message(errno));
    }
    if (n == 0) break;
    rest.append(chunk, static_cast<std::size_t>(n));
  }
  return ByteSlice::copy_of(rest);
}

ByteSlice read_stream_bytes(std::istream& in) {
  // A seekable stream is read with one sized read.
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    const std::size_t size =
        end > start ? static_cast<std::size_t>(end - start) : 0;
    const auto block = std::make_shared_for_overwrite<char[]>(size);
    in.read(block.get(), static_cast<std::streamsize>(size));
    return whole(block, static_cast<std::size_t>(in.gcount()));
  }
  in.clear();
  std::string rest;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    rest.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return ByteSlice::copy_of(rest);
}

}  // namespace netfail::io
