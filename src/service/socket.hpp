// Minimal RAII wrappers over blocking POSIX TCP sockets.
//
// Everything the service needs and nothing more: a listening socket with a
// poll-based accept timeout (so accept loops can observe a stop flag), a
// connection with timeout-bounded reads/writes and a no-consume peer-hangup
// probe (so a handler waiting on a synthesis future can notice the client
// going away and cancel the job), and a client-side connect for the tests
// and the load generator. All I/O uses MSG_NOSIGNAL — a peer closing
// mid-write surfaces as an error return, never SIGPIPE.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fbmb::service {

enum class IoStatus {
  kOk,       ///< data transferred
  kEof,      ///< orderly shutdown by the peer
  kTimeout,  ///< nothing happened within the poll window
  kError,    ///< socket error (connection reset, ...)
};

/// A connected TCP socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads at most `size` bytes, waiting up to `timeout_ms` for data.
  /// `received` is set on kOk.
  IoStatus read_some(char* data, std::size_t size, int timeout_ms,
                     std::size_t& received);

  /// Writes the whole buffer; each chunk waits at most `timeout_ms` for
  /// the socket to accept bytes, blocking socket or not, so a peer that
  /// stops reading cannot hold the caller longer. False on error/timeout.
  bool send_all(std::string_view data, int timeout_ms = 30000);

  /// Writes `head` then `body` as one stream, handing both to each
  /// sendmsg call (a response's head and body without joining them);
  /// otherwise as send_all above.
  bool send_all(std::string_view head, std::string_view body,
                int timeout_ms = 30000);

  /// True when the peer has hung up (or the socket errored) — checked via
  /// poll without consuming any buffered request bytes.
  bool peer_hung_up(int timeout_ms = 0) const;

  void close();

 private:
  int fd_ = -1;
};

/// A bound, listening TCP socket.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket() { close(); }
  ServerSocket(ServerSocket&&) = delete;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Binds `host:port` (port 0 = kernel-assigned) and listens. Returns
  /// an error message, or empty on success.
  std::string listen(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Waits up to `timeout_ms` for a connection; nullopt on timeout (or
  /// on a transient accept failure — the caller just loops).
  std::optional<Socket> accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Client-side connect with a timeout; nullopt on failure.
std::optional<Socket> connect_to(const std::string& host,
                                 std::uint16_t port, int timeout_ms);

}  // namespace fbmb::service
