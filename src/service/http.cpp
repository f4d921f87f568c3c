#include "service/http.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <optional>

namespace fbmb::service {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// RFC 7230 token characters (method and header names).
bool is_token_char(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool is_token(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), is_token_char);
}

/// Targets must be printable ASCII without spaces (origin-form is enough).
bool is_clean_target(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c > ' ' && static_cast<unsigned char>(c) < 0x7F;
  });
}

/// Splits a header block (between the start line and the blank line) into
/// name/value pairs. Returns an error message, or empty on success.
std::string parse_header_lines(
    std::string_view head, const HttpLimits& limits,
    std::vector<std::pair<std::string, std::string>>& out) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) return "header line without CRLF";
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) return "empty header line";
    if (line.front() == ' ' || line.front() == '\t') {
      return "obsolete header folding is not supported";
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return "header without colon";
    const std::string_view name = line.substr(0, colon);
    if (!is_token(name)) return "malformed header name";
    if (out.size() >= limits.max_headers) return "too many headers";
    out.emplace_back(std::string(name),
                     std::string(trim(line.substr(colon + 1))));
  }
  return {};
}

/// Strict non-negative decimal; nullopt on anything else.
std::optional<std::size_t> parse_decimal(std::string_view s) {
  if (s.empty() || s.size() > 15) return std::nullopt;
  std::size_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return &value;
  }
  return nullptr;
}

/// Common head/body framing for requests and responses: locates the blank
/// line, hands the start line to `start`, parses headers, validates
/// Content-Length framing, and waits for the full body. `headers`, `body`
/// and `consumed` belong to the message being built.
ParseStatus parse_message(
    const std::string& buffer, const HttpLimits& limits,
    const std::function<std::string(std::string_view)>& start_line,
    std::vector<std::pair<std::string, std::string>>& headers,
    std::string& body, std::size_t& consumed, std::string& error) {
  const std::size_t head_end = buffer.find("\r\n\r\n");
  // Reject bare-LF framing eagerly: every LF in the head must close a
  // CRLF pair. (The body, which begins after the blank line, is exempt —
  // it is opaque bytes.)
  const std::size_t head_span =
      head_end == std::string::npos ? buffer.size() : head_end + 4;
  for (std::size_t i = 0; i < head_span; ++i) {
    if (buffer[i] == '\n' && (i == 0 || buffer[i - 1] != '\r')) {
      error = "bare LF in header section";
      return ParseStatus::kBadRequest;
    }
  }
  if (head_end == std::string::npos) {
    if (buffer.size() > limits.max_head_bytes) {
      error = "header section exceeds " +
              std::to_string(limits.max_head_bytes) + " bytes";
      return ParseStatus::kBadRequest;
    }
    return ParseStatus::kNeedMore;
  }
  if (head_end + 2 > limits.max_head_bytes) {
    error = "header section exceeds " +
            std::to_string(limits.max_head_bytes) + " bytes";
    return ParseStatus::kBadRequest;
  }

  const std::string_view head(buffer.data(), head_end + 2);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view first = head.substr(0, line_end);
  if (first.size() > limits.max_request_line) {
    error = "start line exceeds " + std::to_string(limits.max_request_line) +
            " bytes";
    return ParseStatus::kBadRequest;
  }
  if (std::string start_error = start_line(first); !start_error.empty()) {
    error = std::move(start_error);
    return ParseStatus::kBadRequest;
  }

  headers.clear();
  if (std::string header_error =
          parse_header_lines(head.substr(line_end + 2), limits, headers);
      !header_error.empty()) {
    error = std::move(header_error);
    return ParseStatus::kBadRequest;
  }

  if (find_header(headers, "Transfer-Encoding") != nullptr) {
    error = "transfer codings are not supported";
    return ParseStatus::kBadRequest;
  }
  std::size_t content_length = 0;
  bool have_length = false;
  for (const auto& [key, value] : headers) {
    if (!iequals(key, "Content-Length")) continue;
    const std::optional<std::size_t> parsed = parse_decimal(value);
    if (!parsed) {
      error = "malformed Content-Length";
      return ParseStatus::kBadRequest;
    }
    if (have_length && *parsed != content_length) {
      error = "conflicting Content-Length values";
      return ParseStatus::kBadRequest;
    }
    content_length = *parsed;
    have_length = true;
  }
  if (content_length > limits.max_body) {
    error = "body exceeds " + std::to_string(limits.max_body) + " bytes";
    return ParseStatus::kTooLarge;
  }

  const std::size_t total = head_end + 4 + content_length;
  if (buffer.size() < total) return ParseStatus::kNeedMore;
  body.assign(buffer, head_end + 4, content_length);
  consumed = total;
  return ParseStatus::kDone;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("Connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && iequals(*connection, "keep-alive");
  }
  return connection == nullptr || !iequals(*connection, "close");
}

ParseStatus HttpRequestParser::feed(const char* data, std::size_t size) {
  if (status_ != ParseStatus::kNeedMore) return status_;
  buffer_.append(data, size);
  return parse();
}

ParseStatus HttpRequestParser::parse() {
  HttpRequest& req = request_;
  status_ = parse_message(
      buffer_, limits_,
      [&req](std::string_view line) -> std::string {
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 =
            sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
        if (sp2 == std::string_view::npos ||
            line.find(' ', sp2 + 1) != std::string_view::npos) {
          return "malformed request line";
        }
        const std::string_view method = line.substr(0, sp1);
        const std::string_view target =
            line.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::string_view version = line.substr(sp2 + 1);
        if (!is_token(method)) return "malformed method";
        if (!is_clean_target(target)) return "malformed request target";
        if (version != "HTTP/1.1" && version != "HTTP/1.0") {
          return "unsupported HTTP version";
        }
        req.method.assign(method);
        req.target.assign(target);
        req.version.assign(version);
        return {};
      },
      request_.headers, request_.body, consumed_, error_);
  return status_;
}

void HttpRequestParser::reset() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  request_ = HttpRequest{};
  error_.clear();
  status_ = ParseStatus::kNeedMore;
  if (!buffer_.empty()) parse();
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Content";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string HttpResponse::head(bool keep_alive) const {
  std::string out;
  out.reserve(256);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += http_status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

const std::string* HttpResponseMessage::header(
    std::string_view name) const {
  return find_header(headers, name);
}

ParseStatus HttpResponseParser::feed(const char* data, std::size_t size) {
  if (status_ != ParseStatus::kNeedMore) return status_;
  buffer_.append(data, size);
  return parse();
}

ParseStatus HttpResponseParser::parse() {
  HttpResponseMessage& msg = message_;
  status_ = parse_message(
      buffer_, limits_,
      [&msg](std::string_view line) -> std::string {
        const std::size_t sp1 = line.find(' ');
        if (sp1 == std::string_view::npos) return "malformed status line";
        const std::string_view version = line.substr(0, sp1);
        if (version != "HTTP/1.1" && version != "HTTP/1.0") {
          return "unsupported HTTP version";
        }
        const std::size_t sp2 = line.find(' ', sp1 + 1);
        const std::string_view code =
            line.substr(sp1 + 1, sp2 == std::string_view::npos
                                     ? std::string_view::npos
                                     : sp2 - sp1 - 1);
        if (code.size() != 3) return "malformed status code";
        int status = 0;
        for (const char c : code) {
          if (c < '0' || c > '9') return "malformed status code";
          status = status * 10 + (c - '0');
        }
        msg.version.assign(version);
        msg.status = status;
        msg.reason.assign(sp2 == std::string_view::npos
                              ? std::string_view{}
                              : line.substr(sp2 + 1));
        return {};
      },
      message_.headers, message_.body, consumed_, error_);
  return status_;
}

void HttpResponseParser::reset() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  message_ = HttpResponseMessage{};
  error_.clear();
  status_ = ParseStatus::kNeedMore;
  if (!buffer_.empty()) parse();
}

}  // namespace fbmb::service
