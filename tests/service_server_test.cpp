// End-to-end tests for SynthServer over real loopback sockets: endpoint
// dispatch, admission control (429), deadlines (504), client-disconnect
// cancellation, and the bit-identical serving contract.

#include "service/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "runtime/result_io.hpp"
#include "service/http.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace fbmb::service {
namespace {

using namespace std::chrono_literals;

/// One HTTP exchange over a fresh loopback connection.
std::optional<HttpResponseMessage> roundtrip(std::uint16_t port,
                                             const std::string& method,
                                             const std::string& target,
                                             const std::string& body = {}) {
  std::optional<Socket> conn = connect_to("127.0.0.1", port, 2000);
  if (!conn) return std::nullopt;
  std::string wire = method + " " + target +
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
    const IoStatus io = conn->read_some(buffer, sizeof(buffer),
                                        /*timeout_ms=*/30000, received);
    if (io != IoStatus::kOk) break;
    parser.feed(buffer, received);
  }
  if (parser.status() != ParseStatus::kDone) return std::nullopt;
  return parser.message();
}

/// Reads the number at `path` (member names from the root) out of a
/// /metrics document; 0 when a member is missing.
std::uint64_t metrics_value(std::uint16_t port,
                            std::initializer_list<const char*> path) {
  const auto metrics = roundtrip(port, "GET", "/metrics");
  if (!metrics) return 0;
  const auto root = jsonio::parse(metrics->body);
  if (!root) return 0;
  const jsonio::Value* value = &*root;
  for (const char* key : path) {
    value = value->find(key);
    if (value == nullptr) return 0;
  }
  return static_cast<std::uint64_t>(value->num);
}

/// Reads service.responses.<key> out of a /metrics document.
std::uint64_t response_counter(std::uint16_t port, const std::string& key) {
  return metrics_value(port, {"service", "responses", key.c_str()});
}

std::string strip_timing(std::string json) {
  const std::size_t at = json.find(", \"cpu_seconds\":");
  const std::size_t end = json.find(", \"stats\"", at);
  if (at != std::string::npos && end != std::string::npos) {
    json.erase(at, end - at);
  }
  return json;
}

/// A 200 body with the two members that describe the run, not the result
/// (cache_hit and wall_seconds), replaced by "_".
std::string mask_run_fields(const std::string& body) {
  std::string masked;
  std::size_t from = 0;
  for (const std::string key : {"\"cache_hit\": ", "\"wall_seconds\": "}) {
    const std::size_t at = body.find(key, from);
    const std::size_t end = body.find(',', at);
    if (at == std::string::npos || end == std::string::npos) continue;
    masked.append(body, from, at + key.size() - from).append("_");
    from = end;
  }
  return masked.append(body, from);
}

SynthesisJob pcr_job(std::uint64_t seed) {
  Benchmark pcr = make_pcr();
  SynthesisJob job;
  job.name = pcr.name;
  job.graph = pcr.graph;
  job.allocation = Allocation(pcr.allocation);
  job.wash = pcr.wash;
  job.options.placer.seed = seed;
  return job;
}

ServerOptions test_options() {
  ServerOptions options;
  options.engine.threads = 2;
  options.max_stall_ms = 2000;
  return options;
}

TEST(SynthServer, HealthzAndMetricsEndpoints) {
  SynthServer server(test_options());
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto health = roundtrip(server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "{\"status\": \"ok\"}");

  const auto metrics = roundtrip(server.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  // The document embeds both the service counters and engine telemetry,
  // and must itself be parseable JSON.
  const auto root = jsonio::parse(metrics->body);
  ASSERT_TRUE(root.has_value());
  EXPECT_NE(root->find("service"), nullptr);
  EXPECT_NE(root->find("engine"), nullptr);
}

TEST(SynthServer, ServedResultIsBitIdenticalToDirectCall) {
  SynthServer server(test_options());
  server.start();

  const auto first = roundtrip(server.port(), "POST", "/synthesize",
                               R"({"benchmark": "PCR", "seed": 7})");
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200) << first->body;
  EXPECT_NE(first->body.find("\"cache_hit\": false"), std::string::npos);

  // The same request again must be a cache hit with the same payload.
  const auto second = roundtrip(server.port(), "POST", "/synthesize",
                                R"({"benchmark": "PCR", "seed": 7})");
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("\"cache_hit\": true"), std::string::npos);

  // The hit answers with the bytes the miss wrote: the two bodies differ
  // only in the members that describe the run.
  EXPECT_EQ(mask_run_fields(second->body), mask_run_fields(first->body));

  // Reference: the library, same job, same seed (timing fields excluded —
  // they measure the run, not the result).
  const SynthesisJob job = pcr_job(7);
  SynthesisEngine engine;
  const std::string direct =
      strip_timing(synthesis_result_to_json(engine.run_job(job).result));
  EXPECT_NE(strip_timing(first->body).find(direct), std::string::npos);
  EXPECT_NE(strip_timing(second->body).find(direct), std::string::npos);
}

TEST(SynthesizeBody, StoredBytesMatchTheWriter) {
  // An outcome without a cache entry (as a caller may build by hand) is
  // written out from its result; the engine's outcome appends the entry's
  // stored bytes. Both bodies must be the same, on the miss and the hit.
  SynthesisEngine engine;
  const SynthesisJob job = pcr_job(7);
  for (int pass = 0; pass < 2; ++pass) {
    const JobOutcome outcome = engine.run_job(job);
    ASSERT_NE(outcome.entry, nullptr);
    EXPECT_EQ(outcome.cache_hit, pass == 1);
    JobOutcome hand_built = outcome;
    hand_built.result = outcome.entry->result;  // a hit's result is empty
    hand_built.entry = nullptr;
    EXPECT_EQ(synthesize_body(hand_built), synthesize_body(outcome));
    EXPECT_EQ(synthesize_body(hand_built, "{\"traceEvents\": []}"),
              synthesize_body(outcome, "{\"traceEvents\": []}"));
  }
}

TEST(SynthServer, UnicodeNameComesBackAsUtf8) {
  SynthServer server(test_options());
  server.start();
  const std::string body =
      R"({"benchmark": "PCR", "name": "\u0141\u00f3d\u017a"})";
  const auto response = roundtrip(server.port(), "POST", "/synthesize", body);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200) << response->body;
  const std::string lodz = "\xC5\x81\xC3\xB3" "d\xC5\xBA";  // "Łódź"
  EXPECT_TRUE(response->body.starts_with("{\"name\": \"" + lodz + "\", "))
      << response->body.substr(0, 40);
  const auto root = jsonio::parse(response->body);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->find("name")->str, lodz);
}

TEST(SynthServer, RejectsBadRequestBodies) {
  SynthServer server(test_options());
  server.start();
  for (const char* body : {
           "",                                        // empty
           "not json",                                // unparseable
           "[1, 2]",                                  // not an object
           R"({"seed": 1})",                          // no workload
           R"({"benchmark": "PCR", "assay": "x"})",   // both workloads
           R"({"benchmark": "NoSuchAssay"})",         // unknown name
           R"({"benchmark": "PCR", "flow": "hm"})",   // bad flow
           R"({"benchmark": "PCR", "flow": "custom"})",  // library only
           R"({"benchmark": "PCR", "seed": -1})",     // bad seed
           R"({"benchmark": "PCR", "restarts": 0})",  // bad restarts
           R"({"assay": "op a mix 5"})",              // assay, no allocate
           R"({"assay": "op a mix"})",                // malformed assay
           // Past the integer types a seed and a deadline convert to.
           R"({"benchmark": "PCR", "seed": 1e300})",
           R"({"benchmark": "PCR", "seed": 18446744073709551616})",
           R"({"benchmark": "PCR", "timeout_ms": 1e300})",
           // A lone surrogate escape has no UTF-8 form.
           R"({"benchmark": "PCR", "name": "\ud800"})",
       }) {
    const auto response = roundtrip(server.port(), "POST", "/synthesize", body);
    ASSERT_TRUE(response.has_value()) << body;
    EXPECT_EQ(response->status, 400) << body;
    EXPECT_NE(response->body.find("\"error\""), std::string::npos) << body;
  }
  EXPECT_GE(response_counter(server.port(), "bad_request"), 13u);
}

TEST(SynthServer, RejectsOversizedAllocation) {
  // The server builds one component per allocate count on the connection
  // thread, so a count is capped before that: 2e9 mixers would exhaust
  // memory there.
  SynthServer server(test_options());
  server.start();
  for (const char* body : {
           R"({"assay": "op a mix 1\nallocate 65 0 0 0\n"})",
           R"({"assay": "op a mix 1\nallocate 2000000000 0 0 0\n"})",
           R"({"assay": "op a detect 1\nallocate 1 0 0 65\n"})",
       }) {
    const auto response = roundtrip(server.port(), "POST", "/synthesize", body);
    ASSERT_TRUE(response.has_value()) << body;
    EXPECT_EQ(response->status, 400) << body;
    EXPECT_NE(response->body.find("at most 64"), std::string::npos)
        << response->body;
  }
  std::string error;
  const auto req = parse_synthesize_request(
      R"({"assay": "op a mix 1\nallocate 64 0 0 0\n"})", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->job.allocation.components().size(), 64u);
}

TEST(SynthServer, AcceptsSeedAndTimeoutAtTheirLimits) {
  // The largest double below 2^64 is a valid seed and converts exactly.
  std::string error;
  const auto req = parse_synthesize_request(
      R"({"benchmark": "PCR", "seed": 18446744073709549568})", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->job.options.placer.seed, 18446744073709549568u);
  // 9223372036854 ms is just below 2^63 ns: the server arms a deadline
  // centuries away, past the clock's range, and the job runs.
  SynthServer server(test_options());
  server.start();
  const auto response =
      roundtrip(server.port(), "POST", "/synthesize",
                R"({"benchmark": "PCR", "timeout_ms": 9223372036854})");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200) << response->body;
}

TEST(SynthServer, UnknownTargetsAndMethods) {
  SynthServer server(test_options());
  server.start();
  EXPECT_EQ(roundtrip(server.port(), "GET", "/nope")->status, 404);
  EXPECT_EQ(roundtrip(server.port(), "GET", "/synthesize")->status, 405);
  EXPECT_EQ(roundtrip(server.port(), "POST", "/healthz")->status, 405);
  EXPECT_EQ(roundtrip(server.port(), "POST", "/metrics")->status, 405);
  EXPECT_EQ(roundtrip(server.port(), "POST", "/trace")->status, 405);
}

TEST(SynthServer, OversizedBodyAnswers413) {
  ServerOptions options = test_options();
  options.http.max_body = 64;
  SynthServer server(options);
  server.start();
  const std::string body =
      R"({"benchmark": "PCR", "pad": ")" + std::string(128, 'x') + "\"}";
  const auto response = roundtrip(server.port(), "POST", "/synthesize", body);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 413);
}

TEST(SynthServer, MalformedHttpAnswers400) {
  SynthServer server(test_options());
  server.start();
  std::optional<Socket> conn = connect_to("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(conn->send_all("THIS IS NOT HTTP\r\n\r\n"));
  HttpResponseParser parser;
  char buffer[1024];
  while (parser.status() == ParseStatus::kNeedMore) {
    std::size_t received = 0;
    if (conn->read_some(buffer, sizeof(buffer), 5000, received) !=
        IoStatus::kOk) {
      break;
    }
    parser.feed(buffer, received);
  }
  ASSERT_EQ(parser.status(), ParseStatus::kDone);
  EXPECT_EQ(parser.message().status, 400);
}

TEST(SynthServer, DeadlineExpiryAnswers504) {
  SynthServer server(test_options());
  server.start();
  // The 1 ms deadline fires during the 300 ms stall, long before any
  // synthesis work starts.
  const auto response = roundtrip(
      server.port(), "POST", "/synthesize",
      R"({"benchmark": "PCR", "timeout_ms": 1, "stall_ms": 300})");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 504) << response->body;
  EXPECT_NE(response->body.find("deadline"), std::string::npos);
  EXPECT_EQ(response_counter(server.port(), "timed_out"), 1u);
  // A deadline is not an internal error.
  EXPECT_EQ(response_counter(server.port(), "error"), 0u);
}

TEST(SynthServer, FullQueueAnswers429WithRetryAfter) {
  ServerOptions options = test_options();
  options.engine.threads = 1;
  options.engine.queue_capacity = 1;
  SynthServer server(options);
  server.start();

  // Four concurrent stalled jobs against one worker and a one-slot queue:
  // at least one must be turned away at admission.
  std::vector<std::thread> clients;
  std::vector<int> statuses(4, 0);
  std::vector<std::string> retry_after(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      const auto response =
          roundtrip(server.port(), "POST", "/synthesize",
                    R"({"benchmark": "PCR", "stall_ms": 400})");
      if (response) {
        statuses[static_cast<std::size_t>(i)] = response->status;
        if (const std::string* h = response->header("Retry-After")) {
          retry_after[static_cast<std::size_t>(i)] = *h;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (statuses[idx] == 200) ++ok;
    if (statuses[idx] == 429) {
      ++rejected;
      EXPECT_EQ(retry_after[idx], "1");
    }
  }
  EXPECT_EQ(ok + rejected, 4);  // every request got a definite answer
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(response_counter(server.port(), "rejected"),
            static_cast<std::uint64_t>(rejected));
  // The pool's high-water saw the queued job; every request has left.
  EXPECT_GE(metrics_value(server.port(), {"engine", "max_queue_depth"}), 1u);
  EXPECT_EQ(metrics_value(server.port(), {"service", "requests", "in_flight"}),
            0u);
}

/// Polls service.requests.<key> until it reaches `want` (5 s cap).
bool wait_for_requests(std::uint16_t port, const char* key,
                       std::uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (metrics_value(port, {"service", "requests", key}) == want) {
      return true;
    }
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

TEST(SynthServer, HitIsAnsweredWhileTheQueueIsFull) {
  // A hit is answered on the connection thread: it needs neither a worker
  // nor a queue slot, so a saturated engine still serves cached inputs.
  ServerOptions options = test_options();
  options.engine.threads = 1;
  options.engine.queue_capacity = 1;
  SynthServer server(options);
  server.start();
  const std::uint16_t port = server.port();
  const std::string cached = R"({"benchmark": "PCR", "seed": 5})";
  ASSERT_EQ(roundtrip(port, "POST", "/synthesize", cached)->status, 200);

  // Hold the worker, then the queue slot, with stalled requests.
  const auto hold = [port] {
    roundtrip(port, "POST", "/synthesize",
              R"({"benchmark": "IVD", "stall_ms": 600})");
  };
  std::thread on_worker(hold);
  EXPECT_TRUE(wait_for_requests(port, "in_flight", 1));
  EXPECT_TRUE(wait_for_requests(port, "queue_depth", 0));
  std::thread in_queue(hold);
  EXPECT_TRUE(wait_for_requests(port, "in_flight", 2));
  const auto full = roundtrip(port, "POST", "/synthesize",
                              R"({"benchmark": "IVD", "stall_ms": 600})");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->status, 429);

  const auto hit = roundtrip(port, "POST", "/synthesize", cached);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, 200) << hit->body;
  EXPECT_NE(hit->body.find("\"cache_hit\": true"), std::string::npos);
  on_worker.join();
  in_queue.join();
}

TEST(SynthServer, EachParsedRequestCountsOneCacheLookup) {
  // However a request is answered (a miss, a hit on the connection
  // thread, a stalled request, or a miss that waited in the queue behind
  // an identical one and finds its entry when it runs), it adds exactly
  // one to hits + misses.
  ServerOptions options = test_options();
  options.engine.threads = 1;
  SynthServer server(options);
  server.start();
  const std::uint16_t port = server.port();
  int parsed = 0;
  int hits = 0;
  const auto send = [&](const std::string& body) {
    const auto response = roundtrip(port, "POST", "/synthesize", body);
    if (!response) return 0;
    if (response->status != 400) ++parsed;
    if (response->body.find("\"cache_hit\": true") != std::string::npos) {
      ++hits;
    }
    return response->status;
  };

  EXPECT_EQ(send(R"({"benchmark": "PCR"})"), 200);          // miss
  EXPECT_EQ(send(R"({"benchmark": "PCR"})"), 200);          // hit
  EXPECT_EQ(send(R"({"benchmark": "NoSuchAssay"})"), 400);  // no lookup
  // A stalled request queues even for a cached input; its job hits.
  EXPECT_EQ(send(R"({"benchmark": "PCR", "stall_ms": 20})"), 200);

  // The first IVD request stalls on the only worker; the second, the same
  // input unstalled, misses on the connection thread and queues behind it.
  const std::string stalled = R"({"benchmark": "IVD", "stall_ms": 300})";
  int first_status = 0;
  std::thread first([&] { first_status = send(stalled); });
  EXPECT_TRUE(wait_for_requests(port, "in_flight", 1));
  std::optional<HttpResponseMessage> queued;
  std::thread second([&] {
    queued = roundtrip(port, "POST", "/synthesize", R"({"benchmark": "IVD"})");
  });
  // Only a request that went to the queue holds a token.
  EXPECT_TRUE(wait_for_requests(port, "in_flight", 2));
  first.join();
  second.join();
  EXPECT_EQ(first_status, 200);
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->status, 200);
  EXPECT_NE(queued->body.find("\"cache_hit\": true"), std::string::npos);
  ++parsed;
  ++hits;

  EXPECT_EQ(parsed, 5);
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(server.engine().cache().hits(), 3u);
  EXPECT_EQ(server.engine().cache().hits() + server.engine().cache().misses(),
            static_cast<std::uint64_t>(parsed));
  EXPECT_EQ(server.engine().telemetry().snapshot().jobs_submitted,
            static_cast<std::uint64_t>(parsed));
}

TEST(SynthServer, TracedHitShowsTheEngineStepsOnly) {
  // A traced hit runs the engine's hit path on the connection thread:
  // its trace holds the job, its fingerprint and its cache lookup, and no
  // admission or wait.
  SynthServer server(test_options());
  server.start();
  ASSERT_EQ(roundtrip(server.port(), "POST", "/synthesize",
                      R"({"benchmark": "PCR"})")
                ->status,
            200);
  const auto traced = roundtrip(server.port(), "POST", "/synthesize",
                                R"({"benchmark": "PCR", "trace": true})");
  ASSERT_TRUE(traced.has_value());
  ASSERT_EQ(traced->status, 200) << traced->body;
  const auto root = jsonio::parse(traced->body);
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->find("cache_hit")->b);
  const std::string id = root->find("trace_id")->str;
  const jsonio::Value* events = root->find("trace")->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> names;
  for (const jsonio::Value& event : events->array) {
    if (event.find("ph")->str == "M") continue;
    EXPECT_EQ(event.find("args")->find("trace_id")->str, id);
    names.insert(event.find("name")->str);
  }
  for (const char* want : {"job", "fingerprint", "cache_find", "cache_hit"}) {
    EXPECT_EQ(names.count(want), 1u) << "missing " << want;
  }
  for (const char* absent : {"admit", "synthesize", "schedule"}) {
    EXPECT_EQ(names.count(absent), 0u) << "unexpected " << absent;
  }
}

TEST(SynthServer, InputTheAllocationCannotServeAnswers422) {
  // The heater step has no heater to run on: the input is at fault, not
  // the server.
  SynthServer server(test_options());
  server.start();
  const auto response = roundtrip(
      server.port(), "POST", "/synthesize",
      R"({"assay": "op a mix 2\nop b heat 3\ndep a b\nallocate 1 0 0 0\n"})");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 422) << response->body;
  EXPECT_EQ(response->reason, "Unprocessable Content");
  const auto root = jsonio::parse(response->body);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->find("stage")->str, "schedule");
  EXPECT_NE(root->find("error")->str.find("Heater"), std::string::npos);
  EXPECT_EQ(response_counter(server.port(), "unprocessable"), 1u);
  EXPECT_EQ(response_counter(server.port(), "error"), 0u);
}

TEST(SynthServer, ClientDisconnectCancelsTheJob) {
  SynthServer server(test_options());
  server.start();
  {
    std::optional<Socket> conn =
        connect_to("127.0.0.1", server.port(), 2000);
    ASSERT_TRUE(conn.has_value());
    const std::string body = R"({"benchmark": "PCR", "stall_ms": 1500})";
    const std::string wire =
        "POST /synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_TRUE(conn->send_all(wire));
    std::this_thread::sleep_for(50ms);
    // Hang up while the job is stalling; the handler must notice and
    // cancel instead of finishing work nobody will read.
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::uint64_t cancelled = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    cancelled = response_counter(server.port(), "cancelled");
    if (cancelled > 0) break;
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(cancelled, 1u);
  EXPECT_EQ(response_counter(server.port(), "error"), 0u);
}

TEST(SynthServer, KeepAliveServesSequentialRequests) {
  SynthServer server(test_options());
  server.start();
  std::optional<Socket> conn = connect_to("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(conn.has_value());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(conn->send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    HttpResponseParser parser;
    char buffer[1024];
    while (parser.status() == ParseStatus::kNeedMore) {
      std::size_t received = 0;
      ASSERT_EQ(conn->read_some(buffer, sizeof(buffer), 5000, received),
                IoStatus::kOk)
          << "round " << round;
      parser.feed(buffer, received);
    }
    ASSERT_EQ(parser.status(), ParseStatus::kDone);
    EXPECT_EQ(parser.message().status, 200);
  }
}

/// "threads" is no longer part of the protocol, and the parser ignores
/// keys it does not know: a request that still sends it — with any value,
/// including 0 — gets the answer a plain request gets, from the same
/// cache entry.
TEST(SynthServer, LegacyThreadsKeyIsIgnored) {
  SynthServer server(test_options());
  server.start();

  const auto plain = roundtrip(server.port(), "POST", "/synthesize",
                               R"({"benchmark": "PCR"})");
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(plain->status, 200);
  const auto plain_root = jsonio::parse(plain->body);
  ASSERT_TRUE(plain_root.has_value());
  EXPECT_FALSE(plain_root->find("cache_hit")->b);

  for (const std::string body :
       {R"({"benchmark": "PCR", "threads": 4})",
        R"({"benchmark": "PCR", "threads": 0})"}) {
    const auto legacy = roundtrip(server.port(), "POST", "/synthesize", body);
    ASSERT_TRUE(legacy.has_value()) << body;
    ASSERT_EQ(legacy->status, 200) << body;
    const auto root = jsonio::parse(legacy->body);
    ASSERT_TRUE(root.has_value()) << body;
    EXPECT_TRUE(root->find("cache_hit")->b) << body;
    EXPECT_EQ(root->find("fingerprint")->str,
              plain_root->find("fingerprint")->str)
        << body;
  }
}

/// The opt-in per-request trace: "trace": true must return the request's
/// own events inline — stage spans, one span per routing round, and the
/// service lifecycle — every one stamped with the response's trace id.
TEST(SynthServer, InlineTraceCarriesStagesRoundsAndOneId) {
  SynthServer server(test_options());
  server.start();

  // Synthetic2/dcsa takes 3 routing rounds — a real multi-round flow.
  const auto traced =
      roundtrip(server.port(), "POST", "/synthesize",
                R"({"benchmark": "Synthetic2", "trace": true})");
  ASSERT_TRUE(traced.has_value());
  ASSERT_EQ(traced->status, 200) << traced->body;
  const auto root = jsonio::parse(traced->body);
  ASSERT_TRUE(root.has_value());
  const jsonio::Value* id = root->find("trace_id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->kind, jsonio::Value::Kind::kString);
  const jsonio::Value* trace = root->find("trace");
  ASSERT_NE(trace, nullptr);
  const jsonio::Value* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, jsonio::Value::Kind::kArray);

  std::size_t spans = 0;
  std::size_t rounds = 0;
  const std::vector<std::string> want = {
      "job", "schedule", "place", "fixpoint", "route_round", "admit",
      "synthesize"};
  std::vector<bool> seen(want.size(), false);
  for (const jsonio::Value& event : events->array) {
    const jsonio::Value* name = event.find("name");
    const jsonio::Value* ph = event.find("ph");
    if (name == nullptr || ph == nullptr || ph->str == "M") continue;
    // The filter is the contract: every surviving event carries the
    // response's id, whether it ran on the handler or a pool worker.
    const jsonio::Value* args = event.find("args");
    ASSERT_NE(args, nullptr) << name->str;
    const jsonio::Value* event_id = args->find("trace_id");
    ASSERT_NE(event_id, nullptr) << name->str;
    EXPECT_EQ(event_id->str, id->str) << name->str;
    if (ph->str == "X") ++spans;
    if (name->str == "route_round") ++rounds;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (name->str == want[i]) seen[i] = true;
    }
  }
  EXPECT_GE(spans, 8u);
  EXPECT_GE(rounds, 2u);  // multi-round: one span per routing round
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "missing span: " << want[i];
  }

  // The knob is execution policy, not identity: the same job untraced is
  // a cache hit with no trace fields in the body.
  const auto plain = roundtrip(server.port(), "POST", "/synthesize",
                               R"({"benchmark": "Synthetic2"})");
  ASSERT_TRUE(plain.has_value());
  ASSERT_EQ(plain->status, 200);
  const auto plain_root = jsonio::parse(plain->body);
  ASSERT_TRUE(plain_root.has_value());
  EXPECT_TRUE(plain_root->find("cache_hit")->b);
  EXPECT_EQ(plain_root->find("trace"), nullptr);
  EXPECT_EQ(plain_root->find("trace_id"), nullptr);

  // Non-boolean "trace" is a 400, like every other malformed knob.
  const auto bad = roundtrip(server.port(), "POST", "/synthesize",
                             R"({"benchmark": "PCR", "trace": 1})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  EXPECT_NE(bad->body.find("trace"), std::string::npos);

  // GET /trace serves the whole buffered snapshot as Chrome-trace JSON;
  // the traced request's events are still in the rings.
  const auto firehose = roundtrip(server.port(), "GET", "/trace");
  ASSERT_TRUE(firehose.has_value());
  EXPECT_EQ(firehose->status, 200);
  const auto firehose_root = jsonio::parse(firehose->body);
  ASSERT_TRUE(firehose_root.has_value());
  const jsonio::Value* all = firehose_root->find("traceEvents");
  ASSERT_NE(all, nullptr);
  EXPECT_GT(all->array.size(), 0u);
}

/// /metrics carries per-endpoint latency histograms for every endpoint
/// the server exposes (plus the legacy top-level "latency" alias).
TEST(SynthServer, MetricsReportsPerEndpointHistograms) {
  SynthServer server(test_options());
  server.start();
  ASSERT_EQ(roundtrip(server.port(), "GET", "/healthz")->status, 200);
  ASSERT_EQ(roundtrip(server.port(), "GET", "/trace")->status, 200);
  ASSERT_EQ(roundtrip(server.port(), "POST", "/synthesize",
                      R"({"benchmark": "PCR"})")
                ->status,
            200);
  ASSERT_EQ(roundtrip(server.port(), "GET", "/metrics")->status, 200);

  const auto metrics = roundtrip(server.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  const auto root = jsonio::parse(metrics->body);
  ASSERT_TRUE(root.has_value());
  const jsonio::Value* service = root->find("service");
  ASSERT_NE(service, nullptr);
  // The synthesize histogram is written once, under endpoints.
  EXPECT_EQ(service->find("latency"), nullptr);
  const jsonio::Value* endpoints = service->find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  for (const char* name : {"synthesize", "healthz", "metrics", "trace"}) {
    const jsonio::Value* ep = endpoints->find(name);
    ASSERT_NE(ep, nullptr) << name;
    for (const char* field :
         {"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"}) {
      ASSERT_NE(ep->find(field), nullptr) << name << "." << field;
    }
    EXPECT_GE(ep->find("count")->num, 1.0) << name;
  }
  // The engine's cache counts are the cache's own.
  const jsonio::Value* engine = root->find("engine");
  ASSERT_NE(engine, nullptr);
  const jsonio::Value* cache = engine->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->num,
            static_cast<double>(server.engine().cache().hits()));
  EXPECT_EQ(cache->find("misses")->num,
            static_cast<double>(server.engine().cache().misses()));
}

}  // namespace
}  // namespace fbmb::service
