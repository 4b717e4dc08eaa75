#include "src/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace netfail::net {
namespace {

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kInternal, what + ": " + std::strerror(errno)};
}

Result<sockaddr_in> make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return make_error(ErrorCode::kInvalidArgument,
                      "not an IPv4 address: " + host);
  }
  return addr;
}

Result<Fd> make_socket(int type) {
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) return errno_error("socket");
  return Fd(fd);
}

}  // namespace

void Fd::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool sockets_available() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

Result<Fd> udp_bind(const std::string& host, std::uint16_t port) {
  const auto addr = make_addr(host, port);
  if (!addr) return addr.error();
  auto fd = make_socket(SOCK_DGRAM);
  if (!fd) return fd;
  if (::bind(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return errno_error("bind udp " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<Fd> udp_connect(const std::string& host, std::uint16_t port) {
  const auto addr = make_addr(host, port);
  if (!addr) return addr.error();
  auto fd = make_socket(SOCK_DGRAM);
  if (!fd) return fd;
  if (::connect(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return errno_error("connect udp " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<Fd> tcp_listen(const std::string& host, std::uint16_t port,
                      int backlog) {
  const auto addr = make_addr(host, port);
  if (!addr) return addr.error();
  auto fd = make_socket(SOCK_STREAM);
  if (!fd) return fd;
  const int one = 1;
  (void)::setsockopt(fd->get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return errno_error("bind tcp " + host + ":" + std::to_string(port));
  }
  if (::listen(fd->get(), backlog) != 0) {
    return errno_error("listen " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<Fd> tcp_connect(const std::string& host, std::uint16_t port) {
  const auto addr = make_addr(host, port);
  if (!addr) return addr.error();
  auto fd = make_socket(SOCK_STREAM);
  if (!fd) return fd;
  if (::connect(fd->get(), reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return errno_error("connect tcp " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<std::uint16_t> local_port(const Fd& fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_error("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Status set_nonblocking(const Fd& fd) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status(errno_error("fcntl O_NONBLOCK"));
  }
  return Status::ok_status();
}

Status set_recv_buffer(const Fd& fd, int bytes) {
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) !=
      0) {
    return Status(errno_error("setsockopt SO_RCVBUF"));
  }
  return Status::ok_status();
}

Status set_rxq_overflow(const Fd& fd) {
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one)) !=
      0) {
    return Status(errno_error("setsockopt SO_RXQ_OVFL"));
  }
  return Status::ok_status();
}

Status set_abortive_close(const Fd& fd) {
  const linger lg{1, 0};
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)) != 0) {
    return Status(errno_error("setsockopt SO_LINGER"));
  }
  return Status::ok_status();
}

Status set_nodelay(const Fd& fd) {
  const int one = 1;
  if (::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) !=
      0) {
    return Status(errno_error("setsockopt TCP_NODELAY"));
  }
  return Status::ok_status();
}

}  // namespace netfail::net
