#include "service/http.hpp"

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "service/metrics.hpp"
#include "service/socket.hpp"

namespace fbmb::service {
namespace {

ParseStatus feed_all(HttpRequestParser& parser, const std::string& bytes) {
  return parser.feed(bytes.data(), bytes.size());
}

TEST(HttpRequestParser, ParsesSimpleGet) {
  HttpRequestParser parser;
  ASSERT_EQ(feed_all(parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            ParseStatus::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_TRUE(parser.request().body.empty());
  EXPECT_TRUE(parser.request().keep_alive());
}

TEST(HttpRequestParser, ParsesPostBodyFedByteByByte) {
  HttpRequestParser parser;
  const std::string wire =
      "POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  for (char c : wire) parser.feed(&c, 1);
  ASSERT_EQ(parser.status(), ParseStatus::kDone);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().body, "abcd");
}

TEST(HttpRequestParser, HeaderLookupIsCaseInsensitive) {
  HttpRequestParser parser;
  ASSERT_EQ(feed_all(parser,
                     "GET / HTTP/1.1\r\nX-Thing:  padded \r\n\r\n"),
            ParseStatus::kDone);
  const std::string* value = parser.request().header("x-THING");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "padded");
  EXPECT_EQ(parser.request().header("missing"), nullptr);
}

TEST(HttpRequestParser, KeepAliveSemanticsPerVersion) {
  HttpRequestParser parser;
  ASSERT_EQ(feed_all(parser, "GET / HTTP/1.0\r\n\r\n"), ParseStatus::kDone);
  EXPECT_FALSE(parser.request().keep_alive());

  parser.reset();
  ASSERT_EQ(
      feed_all(parser, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
      ParseStatus::kDone);
  EXPECT_TRUE(parser.request().keep_alive());

  parser.reset();
  ASSERT_EQ(feed_all(parser,
                     "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            ParseStatus::kDone);
  EXPECT_FALSE(parser.request().keep_alive());
}

TEST(HttpRequestParser, PipelinedRequestsSurviveReset) {
  HttpRequestParser parser;
  ASSERT_EQ(feed_all(parser,
                     "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            ParseStatus::kDone);
  EXPECT_EQ(parser.request().target, "/a");
  parser.reset();
  ASSERT_EQ(parser.status(), ParseStatus::kDone);
  EXPECT_EQ(parser.request().target, "/b");
  parser.reset();
  EXPECT_EQ(parser.status(), ParseStatus::kNeedMore);
}

TEST(HttpRequestParser, RejectsMalformedStartLines) {
  for (const char* wire : {
           "GET\r\n\r\n",                           // one part
           "GET / HTTP/1.1 extra\r\n\r\n",          // four parts
           "GET / HTTP/2.0\r\n\r\n",                // unsupported version
           "G@T / HTTP/1.1\r\n\r\n",                // non-token method
           "GET /a b HTTP/1.1\r\n\r\n",             // space in target
           "GET / HTTP/1.1\nHost: x\n\n",           // bare LF line ending
       }) {
    HttpRequestParser parser;
    EXPECT_EQ(feed_all(parser, wire), ParseStatus::kBadRequest) << wire;
    EXPECT_FALSE(parser.error().empty()) << wire;
  }
}

TEST(HttpRequestParser, RejectsMalformedHeaders) {
  for (const char* wire : {
           "GET / HTTP/1.1\r\nNoColon\r\n\r\n",
           "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
           "GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n",  // obs-fold
           "GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
           "GET / HTTP/1.1\r\nContent-Length: 1\r\n"
           "Content-Length: 2\r\n\r\n",
           "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       }) {
    HttpRequestParser parser;
    EXPECT_EQ(feed_all(parser, wire), ParseStatus::kBadRequest) << wire;
  }
}

TEST(HttpRequestParser, EnforcesEveryBound) {
  HttpLimits limits;
  limits.max_request_line = 32;
  limits.max_head_bytes = 100;
  limits.max_headers = 2;
  limits.max_body = 8;

  {
    HttpRequestParser parser(limits);
    const std::string wire =
        "GET /" + std::string(64, 'a') + " HTTP/1.1\r\n\r\n";
    EXPECT_EQ(feed_all(parser, wire), ParseStatus::kBadRequest);
  }
  {
    HttpRequestParser parser(limits);
    EXPECT_EQ(feed_all(parser,
                       "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"),
              ParseStatus::kBadRequest);
  }
  {
    HttpRequestParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    wire += "Long-Header-Name-Padding-Padding: value value value\r\n";
    wire += "Another-Long-Header-Name-Padding: value value value\r\n\r\n";
    EXPECT_EQ(feed_all(parser, wire), ParseStatus::kBadRequest);
  }
  {
    HttpRequestParser parser(limits);
    EXPECT_EQ(
        feed_all(parser,
                 "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"),
        ParseStatus::kTooLarge);
  }
}

TEST(HttpRequestParser, TerminalStatusIsSticky) {
  HttpRequestParser parser;
  ASSERT_EQ(feed_all(parser, "junk\r\n\r\n"), ParseStatus::kBadRequest);
  EXPECT_EQ(feed_all(parser, "GET / HTTP/1.1\r\n\r\n"),
            ParseStatus::kBadRequest);
}

TEST(HttpResponse, SerializeRoundTripsThroughResponseParser) {
  HttpResponse response;
  response.status = 429;
  response.body = "{\"error\": \"full\"}";
  response.headers.emplace_back("Retry-After", "1");
  const std::string wire = response.head(/*keep_alive=*/false) + response.body;

  HttpResponseParser parser;
  ASSERT_EQ(parser.feed(wire.data(), wire.size()), ParseStatus::kDone);
  EXPECT_EQ(parser.message().status, 429);
  EXPECT_EQ(parser.message().body, response.body);
  const std::string* retry = parser.message().header("retry-after");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, "1");
  const std::string* conn = parser.message().header("Connection");
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(*conn, "close");
}

TEST(HttpResponse, EveryServiceStatusHasAReason) {
  for (int status : {200, 400, 404, 405, 413, 422, 429, 500, 503, 504}) {
    EXPECT_STRNE(http_status_reason(status), "Unknown") << status;
  }
}

// The two-buffer send resumes after partial writes: a writer whose send
// buffer holds a few KB takes a head and a body many times that size in
// pieces, some ending inside the head and most inside the body. The
// socket is blocking, as an accepted connection is.
TEST(Socket, HeadAndBodyLargerThanTheSendBufferArriveWhole) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  const int send_buffer = 4096;
  ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &send_buffer,
                         sizeof(send_buffer)),
            0);
  std::string head(10000, 'h');
  std::string body(300000, ' ');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + i % 26);
  }

  std::string received;
  std::thread drain([&] {
    // Start late, so the writer fills its buffer and has to wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    char buffer[1500];
    while (received.size() < head.size() + body.size()) {
      std::size_t n = 0;
      if (reader.read_some(buffer, sizeof(buffer), 5000, n) !=
          IoStatus::kOk) {
        break;
      }
      received.append(buffer, n);
    }
  });
  const bool sent = writer.send_all(head, body, 5000);
  drain.join();
  EXPECT_TRUE(sent);
  ASSERT_EQ(received.size(), head.size() + body.size());
  EXPECT_TRUE(received == head + body);
}

// A reader that stops reading cannot hold a blocking writer past its
// timeout: each write waits only in poll, so send_all gives up once the
// send buffer stays full for timeout_ms. A watchdog closes the reader
// after 2 s, so a write blocked in the kernel ends too, and the test
// fails on its clock instead of hanging.
TEST(Socket, StalledReaderTimesOutABlockingWriter) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  const int send_buffer = 4096;
  ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &send_buffer,
                         sizeof(send_buffer)),
            0);
  const std::string body(300000, 'b');

  std::promise<void> returned;
  std::thread watchdog([&reader, done = returned.get_future()] {
    done.wait_for(std::chrono::seconds(2));
    reader.close();
  });
  const auto start = std::chrono::steady_clock::now();
  const bool sent = writer.send_all("HTTP/1.1 200 OK\r\n\r\n", body, 50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  returned.set_value();
  watchdog.join();
  EXPECT_FALSE(sent);
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

// A percentile is its bucket's upper bound clamped to the exact max, so
// samples below the first bound (0.01 ms) or at the top of a bucket never
// report a percentile above the largest sample.
TEST(LatencyHistogram, PercentilesAreOrderedAndNeverAboveTheMax) {
  const auto expect_ordered = [](const LatencyHistogram& histogram,
                                 const char* label) {
    const LatencyHistogram::Snapshot snap = histogram.snapshot();
    const double p50 = LatencyHistogram::percentile_ms(snap, 50.0);
    const double p90 = LatencyHistogram::percentile_ms(snap, 90.0);
    const double p99 = LatencyHistogram::percentile_ms(snap, 99.0);
    const double max = snap.max_seconds * 1e3;
    EXPECT_LE(p50, p90) << label;
    EXPECT_LE(p90, p99) << label;
    EXPECT_LE(p99, max) << label;
    EXPECT_GT(p50, 0.0) << label;
  };

  // One sample of 1 µs, far below the first bound.
  LatencyHistogram tiny;
  tiny.record(1e-6);
  expect_ordered(tiny, "1 us");
  const LatencyHistogram::Snapshot one = tiny.snapshot();
  EXPECT_LT(one.max_seconds * 1e3, 0.01);
  EXPECT_DOUBLE_EQ(LatencyHistogram::percentile_ms(one, 50.0),
                   one.max_seconds * 1e3);

  // Samples at the top of buckets: 0.01 ms and 1.6^k times it.
  LatencyHistogram tops;
  double ms = 0.01;
  for (int k = 0; k < 12; ++k, ms *= 1.6) tops.record(ms * 1e-3);
  expect_ordered(tops, "bucket tops");

  // Most samples below the first bound, a few in one bucket whose bound
  // lies above the max (the 4.50–7.21 ms bucket, max 6.81771 ms).
  LatencyHistogram mixed;
  for (int i = 0; i < 50; ++i) mixed.record(2e-6);
  for (int i = 0; i < 40; ++i) mixed.record(5.5e-3);
  for (int i = 0; i < 10; ++i) mixed.record(6.81771e-3);
  expect_ordered(mixed, "mixed");
  const LatencyHistogram::Snapshot snap = mixed.snapshot();
  EXPECT_LE(LatencyHistogram::percentile_ms(snap, 50.0), 0.01);
  EXPECT_DOUBLE_EQ(LatencyHistogram::percentile_ms(snap, 90.0),
                   snap.max_seconds * 1e3);
}

}  // namespace
}  // namespace fbmb::service
