// Thin POSIX socket layer: RAII descriptors plus the handful of loopback
// helpers the gateway and replay sender need. No third-party dependency —
// raw AF_INET sockets, nonblocking where the event loop requires it.
//
// Everything binds/connects IPv4; the gateway binds loopback by default so
// a test or CI sandbox never opens an externally visible port.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "src/common/result.hpp"

namespace netfail::net {

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close_fd(); }
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      close_fd();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Release ownership without closing.
  int release() { return std::exchange(fd_, -1); }
  void reset() { close_fd(); }

 private:
  void close_fd();
  int fd_ = -1;
};

/// True when this process may create and bind loopback sockets; a sandbox
/// that forbids them makes the net tests skip instead of fail.
bool sockets_available();

// All helpers return an error with errno detail on failure. `port` 0 asks
// the kernel for an ephemeral port; read it back with local_port().
Result<Fd> udp_bind(const std::string& host, std::uint16_t port);
Result<Fd> udp_connect(const std::string& host, std::uint16_t port);
Result<Fd> tcp_listen(const std::string& host, std::uint16_t port,
                      int backlog = 8);
Result<Fd> tcp_connect(const std::string& host, std::uint16_t port);

Result<std::uint16_t> local_port(const Fd& fd);

Status set_nonblocking(const Fd& fd);
Status set_recv_buffer(const Fd& fd, int bytes);
/// Have the kernel attach the socket's running count of datagrams it
/// dropped for want of receive-buffer space to each datagram it hands out
/// (SO_RXQ_OVFL, a control message). Affects this socket only.
Status set_rxq_overflow(const Fd& fd);
/// Arrange for close() to send RST instead of FIN (SO_LINGER, timeout 0) —
/// the fault injector's "connection reset" primitive.
Status set_abortive_close(const Fd& fd);
/// Disable Nagle batching; the replay sender paces its own writes.
Status set_nodelay(const Fd& fd);

}  // namespace netfail::net
