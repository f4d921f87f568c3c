// Hand-rolled, strictly bounded HTTP/1.1 message parsing and writing.
//
// The request parser is incremental: feed() it raw bytes as they arrive
// and it reports kNeedMore until a complete request (head + body) is
// buffered. Every dimension is bounded — request-line length, total header
// bytes, header count, body bytes — and any malformed or over-limit input
// lands in a terminal error state with a human-readable reason, never an
// exception or a crash: the parser handles untrusted network bytes.
//
// Supported surface (all the synthesis service needs): methods as plain
// tokens, origin-form targets, HTTP/1.0 and 1.1, Content-Length bodies,
// keep-alive. Not supported (rejected cleanly): chunked transfer coding,
// obs-fold header continuation, conflicting Content-Length values, and
// bare-LF line endings (every head line must end in CRLF).
//
// A matching response parser is provided for clients (the load generator
// and the tests speak raw sockets too).

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fbmb::service {

/// Hard bounds on one parsed request; defaults fit synthesis traffic.
struct HttpLimits {
  std::size_t max_request_line = 4096;
  std::size_t max_head_bytes = 16384;  ///< request line + all headers
  std::size_t max_headers = 64;
  std::size_t max_body = 1 << 20;  ///< 1 MiB
};

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with the given name (case-insensitive), or nullptr.
  const std::string* header(std::string_view name) const;

  /// HTTP/1.1 defaults to keep-alive unless "Connection: close"; 1.0
  /// defaults to close unless "Connection: keep-alive".
  bool keep_alive() const;
};

enum class ParseStatus {
  kNeedMore,    ///< incomplete; feed more bytes
  kDone,        ///< request() is complete and valid
  kBadRequest,  ///< malformed input (answer 400); error() says why
  kTooLarge,    ///< body over max_body (answer 413)
};

class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = {}) : limits_(limits) {}

  /// Appends bytes and advances the parse. Once terminal (kDone /
  /// kBadRequest / kTooLarge) the status is sticky until reset().
  ParseStatus feed(const char* data, std::size_t size);

  ParseStatus status() const { return status_; }
  const HttpRequest& request() const { return request_; }
  const std::string& error() const { return error_; }

  /// Consumes the parsed request and re-parses any buffered bytes beyond
  /// it (keep-alive pipelining), so status() may be kDone again
  /// immediately after reset().
  void reset();

 private:
  ParseStatus parse();

  HttpLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ used by request_
  HttpRequest request_;
  ParseStatus status_ = ParseStatus::kNeedMore;
  std::string error_;
};

/// Reason phrase for every status code the service emits.
const char* http_status_reason(int status);

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers (e.g. Retry-After); Content-Length, Content-Type and
  /// Connection are emitted automatically.
  std::vector<std::pair<std::string, std::string>> headers;

  /// The status line and headers, with "Connection: keep-alive|close",
  /// through the blank line. The wire form is head() then `body`, sent
  /// as two buffers (Socket::send_all) so the body is never copied.
  std::string head(bool keep_alive) const;
};

struct HttpResponseMessage {
  std::string version;
  int status = 0;
  std::string reason;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* header(std::string_view name) const;
};

/// Client-side incremental parser for Content-Length responses (same
/// bounds discipline as the request parser; max_body applies).
class HttpResponseParser {
 public:
  explicit HttpResponseParser(HttpLimits limits = {}) : limits_(limits) {}

  ParseStatus feed(const char* data, std::size_t size);
  ParseStatus status() const { return status_; }
  const HttpResponseMessage& message() const { return message_; }
  const std::string& error() const { return error_; }
  void reset();

 private:
  ParseStatus parse();

  HttpLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;
  HttpResponseMessage message_;
  ParseStatus status_ = ParseStatus::kNeedMore;
  std::string error_;
};

}  // namespace fbmb::service
