// Graceful-shutdown coverage: a drain with jobs in flight answers them
// (cancelled, not failed), spills a reloadable cache, and SIGTERM routes
// through SignalDrain into the same path.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "runtime/result_cache.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace fbmb::service {
namespace {

using namespace std::chrono_literals;

std::optional<HttpResponseMessage> roundtrip(std::uint16_t port,
                                             const std::string& method,
                                             const std::string& target,
                                             const std::string& body = {}) {
  std::optional<Socket> conn = connect_to("127.0.0.1", port, 2000);
  if (!conn) return std::nullopt;
  const std::string wire = method + " " + target +
                           " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!conn->send_all(wire)) return std::nullopt;
  HttpLimits limits;
  limits.max_body = 8u << 20;
  HttpResponseParser parser(limits);
  char buffer[4096];
  while (parser.status() == ParseStatus::kNeedMore) {
    std::size_t received = 0;
    if (conn->read_some(buffer, sizeof(buffer), 30000, received) !=
        IoStatus::kOk) {
      break;
    }
    parser.feed(buffer, received);
  }
  if (parser.status() != ParseStatus::kDone) return std::nullopt;
  return parser.message();
}

TEST(SynthServerDrain, CancelsInFlightJobAnswersItAndSpillsCache) {
  const std::string spill =
      testing::TempDir() + "service_drain_spill.json";
  std::remove(spill.c_str());

  ServerOptions options;
  options.engine.threads = 2;
  options.max_stall_ms = 10000;
  options.drain_budget_ms = 100;  // far shorter than the stall below
  options.cache_spill_path = spill;
  SynthServer server(options);
  server.start();
  const std::uint16_t port = server.port();

  // Warm the cache so the spill has something to prove reloadability.
  const auto warm = roundtrip(port, "POST", "/synthesize",
                              R"({"benchmark": "PCR", "seed": 3})");
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->status, 200) << warm->body;

  // Park a job in a 5 s stall, then drain with a 100 ms budget: the drain
  // must cancel the job, and the client must still get a definite answer
  // (503 cancelled — not a 500, not a dropped connection).
  std::optional<HttpResponseMessage> stalled;
  std::thread client([&] {
    stalled = roundtrip(port, "POST", "/synthesize",
                        R"({"benchmark": "PCR", "stall_ms": 5000})");
  });
  while (server.metrics().requests_in_flight.load() == 0) {
    std::this_thread::sleep_for(5ms);
  }

  server.request_shutdown();
  EXPECT_TRUE(server.draining());
  const auto start = std::chrono::steady_clock::now();
  server.shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  client.join();

  // Well under the 5 s stall: the budget expired and the token fired.
  EXPECT_LT(elapsed, 3s);
  ASSERT_TRUE(stalled.has_value()) << "drained request was dropped";
  EXPECT_EQ(stalled->status, 503) << stalled->body;
  EXPECT_EQ(server.metrics().responses_cancelled.load(), 1u);
  EXPECT_EQ(server.metrics().responses_error.load(), 0u);

  // The spill is intact and reloadable.
  ResultCache reloaded(8);
  EXPECT_EQ(reloaded.load_json(spill), 1u);
  std::remove(spill.c_str());
}

TEST(SynthServerDrain, NewRequestsAreRefusedWhileDraining) {
  ServerOptions options;
  options.engine.threads = 2;
  SynthServer server(options);
  server.start();
  server.request_shutdown();

  // Either answered 503 (accepted before the listener noticed) or the
  // connection is refused outright — never a 200.
  const auto response = roundtrip(server.port(), "POST", "/synthesize",
                                  R"({"benchmark": "PCR"})");
  if (response) {
    EXPECT_EQ(response->status, 503);
  }
  server.shutdown();
}

TEST(SynthServerDrain, ShutdownIsIdempotentAndDestructorSafe) {
  ServerOptions options;
  options.engine.threads = 1;
  SynthServer server(options);
  server.start();
  EXPECT_EQ(roundtrip(server.port(), "GET", "/healthz")->status, 200);
  server.shutdown();
  server.shutdown();  // second call is a no-op
  // Destructor runs shutdown() again; must not hang or crash.
}

TEST(SynthServerDrain, SigtermRoutesThroughSignalDrain) {
  ServerOptions options;
  options.engine.threads = 1;
  SynthServer server(options);
  server.start();

  std::thread waiter([&] { server.wait_shutdown_requested(); });
  {
    SignalDrain drain(server);
    std::raise(SIGTERM);
    waiter.join();  // unblocked only by request_shutdown()
  }
  EXPECT_TRUE(server.draining());
  server.shutdown();
  const auto response = roundtrip(server.port(), "GET", "/healthz");
  EXPECT_FALSE(response.has_value());  // listener is gone
}

}  // namespace
}  // namespace fbmb::service
