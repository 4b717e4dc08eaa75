#include "src/io/file_bytes.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
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

/// The `size` bytes of the open regular file `fd`, mapped read-only, under
/// an owner that unmaps them; empty when the kernel refuses the mapping.
/// The mapping is registered while it lives, so its readers may drop the
/// pages they are done with (release_pages).
ByteSlice map_file(int fd, std::size_t size) {
  void* const at = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (at == MAP_FAILED) return {};
  const std::shared_ptr<const char> owner(
      static_cast<const char*>(at), [size](const char* p) {
        unregister_mapping(p);
        ::munmap(const_cast<char*>(p), size);
      });
  register_mapping(owner.get(), size);
  return ByteSlice(owner, 0, size);
}

}  // namespace

Result<ByteSlice> read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return make_error(ErrorCode::kNotFound, "cannot open " + path);
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    ByteSlice mapped = map_file(fd, static_cast<std::size_t>(st.st_size));
    if (mapped.size() != 0) return mapped;
  }
  // Not mappable (a pipe, an empty file): read it to its end.
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
