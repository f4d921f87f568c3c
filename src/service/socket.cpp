#include "service/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

// POLLRDHUP (peer closed its write side) is Linux-specific; fall back to
// its value so the probe still compiles where <poll.h> hides it.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace fbmb::service {

namespace {

/// poll() one fd for `events`, retrying on EINTR. Returns revents, 0 on
/// timeout, -1 on error.
int poll_one(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    return pfd.revents;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

IoStatus Socket::read_some(char* data, std::size_t size, int timeout_ms,
                           std::size_t& received) {
  received = 0;
  if (fd_ < 0) return IoStatus::kError;
  const int revents = poll_one(fd_, POLLIN, timeout_ms);
  if (revents < 0) return IoStatus::kError;
  if (revents == 0) return IoStatus::kTimeout;
  if ((revents & (POLLERR | POLLNVAL)) != 0) return IoStatus::kError;
  const ssize_t n = ::recv(fd_, data, size, 0);
  if (n > 0) {
    received = static_cast<std::size_t>(n);
    return IoStatus::kOk;
  }
  if (n == 0) return IoStatus::kEof;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return IoStatus::kTimeout;
  }
  return IoStatus::kError;
}

bool Socket::send_all(std::string_view data, int timeout_ms) {
  return send_all(data, {}, timeout_ms);
}

bool Socket::send_all(std::string_view head, std::string_view body,
                      int timeout_ms) {
  if (fd_ < 0) return false;
  std::array<struct iovec, 2> parts = {
      {{const_cast<char*>(head.data()), head.size()},
       {const_cast<char*>(body.data()), body.size()}}};
  std::size_t next = 0;  // the first part with bytes left to send
  // Drops `sent` bytes from the front of the unsent parts.
  const auto advance = [&](std::size_t sent) {
    for (; next < parts.size(); ++next) {
      struct iovec& part = parts[next];
      if (sent < part.iov_len) {
        part.iov_base = static_cast<char*>(part.iov_base) + sent;
        part.iov_len -= sent;
        return;
      }
      sent -= part.iov_len;
    }
  };
  advance(0);
  while (next < parts.size()) {
    const int revents = poll_one(fd_, POLLOUT, timeout_ms);
    if (revents <= 0 || (revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
      return false;
    }
    struct msghdr message = {};
    message.msg_iov = &parts[next];
    message.msg_iovlen = parts.size() - next;
    // MSG_DONTWAIT: the accepted socket is blocking, and a blocking
    // sendmsg larger than the free send buffer would wait for the peer to
    // read, past timeout_ms. Each write waits only in poll above.
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return false;
    }
    advance(static_cast<std::size_t>(n));
  }
  return true;
}

bool Socket::peer_hung_up(int timeout_ms) const {
  if (fd_ < 0) return true;
  const int revents =
      poll_one(fd_, static_cast<short>(POLLRDHUP), timeout_ms);
  if (revents < 0) return true;
  return (revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string ServerSocket::listen(const std::string& host,
                                 std::uint16_t port) {
  close();
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return "invalid listen address " + host;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string("socket: ") + std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return "bind " + host + ":" + std::to_string(port) + ": " + reason;
  }
  if (::listen(fd, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return "listen: " + reason;
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return "getsockname: " + reason;
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return {};
}

std::optional<Socket> ServerSocket::accept(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  const int revents = poll_one(fd_, POLLIN, timeout_ms);
  if (revents <= 0 || (revents & POLLIN) == 0) return std::nullopt;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(client);
}

void ServerSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Socket> connect_to(const std::string& host,
                                 std::uint16_t port, int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  // Non-blocking connect so the timeout is honored.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return std::nullopt;
  }
  if (rc != 0) {
    const int revents = poll_one(fd, POLLOUT, timeout_ms);
    int error = 0;
    socklen_t error_len = sizeof(error);
    if (revents <= 0 || (revents & (POLLERR | POLLHUP)) != 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) != 0 ||
        error != 0) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

}  // namespace fbmb::service
