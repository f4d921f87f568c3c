// service_load — closed-loop load generator for synth_server
// (docs/SERVICE.md).
//
// Spawns N client threads that each fire M requests at a running server
// with a deterministic traffic mix:
//
//   70%  warm    PCR at seed 1 — after the first hit these are cache hits,
//                and their "result" payload is checked bit-identical to a
//                direct in-process engine run at the same seed (modulo the
//                cpu_seconds/stage_seconds wall-clock fields, which are
//                measurements of the run rather than part of the result)
//   10%  cold    PaperExample at a unique per-request seed (cache misses)
//   10%  bad     malformed bodies — the server must answer 400, never drop
//   10%  slow    a 1 ms deadline against a stalled job — the server must
//                answer 504 (requires synth_server --max-stall-ms >= 50)
//
// Every request must receive *some* definite HTTP status — a dropped
// connection counts as "unanswered" and fails the run. Latency is measured
// client-side (exact percentiles over all answered requests, sorted).
//
//   ./service_load --port 8080 [--clients 32] [--requests 50]
//                  [--json-out BENCH_service.json]
//
// Exit status is non-zero when any request went unanswered, any status
// fell outside its class's expected set, or the warm payload was not
// bit-identical to the library result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "runtime/result_io.hpp"
#include "runtime/synthesis_engine.hpp"
#include "service/http.hpp"
#include "service/socket.hpp"

namespace {

using fbmb::service::connect_to;
using fbmb::service::HttpLimits;
using fbmb::service::HttpResponseParser;
using fbmb::service::IoStatus;
using fbmb::service::ParseStatus;
using fbmb::service::Socket;

enum class TrafficClass { kWarm, kCold, kBad, kSlow };

TrafficClass class_for(int request_index) {
  switch (request_index % 10) {
    case 7: return TrafficClass::kBad;
    case 8: return TrafficClass::kSlow;
    case 9: return TrafficClass::kCold;
    default: return TrafficClass::kWarm;
  }
}

std::string body_for(TrafficClass cls, int client, int request) {
  switch (cls) {
    case TrafficClass::kWarm:
      return R"({"benchmark": "PCR", "seed": 1})";
    case TrafficClass::kCold: {
      // Unique seed per (client, request): never a cache hit.
      const long seed = 1000 + client * 1000 + request;
      return "{\"benchmark\": \"PaperExample\", \"seed\": " +
             std::to_string(seed) + "}";
    }
    case TrafficClass::kBad:
      // Rotate through distinct malformations.
      switch (request % 3) {
        case 0: return R"({"benchmark": "PCR", "seed": )";  // truncated
        case 1: return R"({"benchmark": "NoSuchAssay"})";   // unknown name
        default: return "not json at all";
      }
    case TrafficClass::kSlow:
      // The stall outlives the deadline by 49 ms, so the token fires at
      // the pre-run checkpoint and the server answers 504.
      return R"({"benchmark": "PCR", "seed": 1, "timeout_ms": 1,)"
             R"( "stall_ms": 50})";
  }
  return {};
}

bool status_expected(TrafficClass cls, int status) {
  // 429 (queue full) and 503 (connection cap / drain) are legitimate
  // load-shedding answers for any synthesis request.
  switch (cls) {
    case TrafficClass::kWarm:
    case TrafficClass::kCold:
      return status == 200 || status == 429 || status == 503;
    case TrafficClass::kBad:
      return status == 400;
    case TrafficClass::kSlow:
      // 200 is possible when the server runs with the stall knob disabled
      // and serves the cached result before the 1 ms deadline is checked.
      return status == 504 || status == 200 || status == 429 ||
             status == 503;
  }
  return false;
}

struct Outcome {
  bool answered = false;
  bool expected = false;
  int status = 0;
  double latency_ms = 0.0;
  TrafficClass cls = TrafficClass::kWarm;
  std::string body;
};

/// One request over a fresh connection. Always fills `out.answered`
/// truthfully: any connect/send/read/parse failure leaves it false.
Outcome run_request(const std::string& host, std::uint16_t port,
                    TrafficClass cls, int client, int request) {
  Outcome out;
  out.cls = cls;
  const std::string body = body_for(cls, client, request);
  std::string wire = "POST /synthesize HTTP/1.1\r\nHost: " + host +
                     "\r\nConnection: close\r\nContent-Type: "
                     "application/json\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body;

  const auto start = std::chrono::steady_clock::now();
  std::optional<Socket> conn = connect_to(host, port, /*timeout_ms=*/5000);
  if (!conn) return out;
  if (!conn->send_all(wire, /*timeout_ms=*/10000)) return out;

  HttpLimits limits;
  limits.max_body = 8u << 20;  // results can exceed the request bound
  HttpResponseParser parser(limits);
  char buffer[8192];
  while (parser.status() == ParseStatus::kNeedMore) {
    std::size_t received = 0;
    const IoStatus io =
        conn->read_some(buffer, sizeof(buffer), /*timeout_ms=*/60000,
                        received);
    if (io == IoStatus::kEof) {
      parser.feed(nullptr, 0);
      break;
    }
    if (io != IoStatus::kOk) return out;
    parser.feed(buffer, received);
  }
  if (parser.status() != ParseStatus::kDone) return out;

  out.latency_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  out.answered = true;
  out.status = parser.message().status;
  out.expected = status_expected(cls, out.status);
  out.body = parser.message().body;
  return out;
}

/// Blanks the run-telemetry of a result JSON — the wall-clock span
/// (`"cpu_seconds": ...` up to, not including, `, "stats"`) — so two runs
/// of the same deterministic job compare equal byte-for-byte. It
/// describes the run that produced the result, not the result.
std::string strip_timing(std::string json) {
  for (std::size_t at = json.find(", \"cpu_seconds\":");
       at != std::string::npos;
       at = json.find(", \"cpu_seconds\":", at + 1)) {
    const std::size_t end = json.find(", \"stats\"", at);
    if (end == std::string::npos) break;
    json.erase(at, end - at);
  }
  return json;
}

/// One GET over a fresh connection; empty on any transport failure.
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& target) {
  const std::string wire = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                           "\r\nConnection: close\r\n\r\n";
  std::optional<Socket> conn = connect_to(host, port, /*timeout_ms=*/5000);
  if (!conn) return {};
  if (!conn->send_all(wire, /*timeout_ms=*/10000)) return {};
  HttpLimits limits;
  limits.max_body = 64u << 20;  // /trace can be large
  HttpResponseParser parser(limits);
  char buffer[8192];
  while (parser.status() == ParseStatus::kNeedMore) {
    std::size_t received = 0;
    const IoStatus io = conn->read_some(buffer, sizeof(buffer),
                                        /*timeout_ms=*/60000, received);
    if (io == IoStatus::kEof) {
      parser.feed(nullptr, 0);
      break;
    }
    if (io != IoStatus::kOk) return {};
    parser.feed(buffer, received);
  }
  if (parser.status() != ParseStatus::kDone ||
      parser.message().status != 200) {
    return {};
  }
  return parser.message().body;
}

/// Re-serializes the server's per-endpoint histogram summaries
/// (service.endpoints in GET /metrics) for BENCH_service.json. Returns
/// "{}" when the fetch or parse fails so the output stays valid JSON.
std::string server_endpoint_json(const std::string& metrics_body) {
  const std::optional<fbmb::jsonio::Value> root =
      fbmb::jsonio::parse(metrics_body);
  if (!root) return "{}";
  const fbmb::jsonio::Value* service = root->find("service");
  const fbmb::jsonio::Value* endpoints =
      service != nullptr ? service->find("endpoints") : nullptr;
  if (endpoints == nullptr) return "{}";
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const char* name : {"synthesize", "healthz", "metrics", "trace"}) {
    const fbmb::jsonio::Value* ep = endpoints->find(name);
    if (ep == nullptr) continue;
    os << (first ? "" : ", ") << "\"" << name << "\": {";
    bool first_field = true;
    for (const char* field :
         {"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"}) {
      const fbmb::jsonio::Value* v = ep->find(field);
      if (v == nullptr || v->kind != fbmb::jsonio::Value::Kind::kNumber) {
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v->num);
      os << (first_field ? "" : ", ") << "\"" << field << "\": " << buf;
      first_field = false;
    }
    os << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

/// The library-side reference payload for the warm request class: PCR at
/// seed 1 through the same engine entry point the server uses.
std::string direct_warm_result_json() {
  fbmb::Benchmark pcr = fbmb::make_pcr();
  fbmb::SynthesisJob job;
  job.name = pcr.name;
  job.graph = pcr.graph;
  job.allocation = fbmb::Allocation(pcr.allocation);
  job.wash = pcr.wash;
  job.options.placer.seed = 1;
  fbmb::SynthesisEngine engine;
  return synthesis_result_to_json(engine.run_job(job).result);
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 0;
  long clients = 32;
  long requests = 50;
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--host" && value) {
      host = value;
      ++i;
    } else if (arg == "--port" && value) {
      port = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--clients" && value) {
      clients = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--requests" && value) {
      requests = std::strtol(value, nullptr, 10);
      ++i;
    } else if (arg == "--json-out" && value) {
      json_out = value;
      ++i;
    } else {
      std::cerr << "usage: " << argv[0]
                << " --port N [--host H] [--clients N] [--requests N]"
                   " [--json-out FILE]\n";
      return 2;
    }
  }
  if (port <= 0 || port > 65535 || clients < 1 || requests < 1) {
    std::cerr << "service_load: --port is required (1..65535)\n";
    return 2;
  }

  std::cout << "service_load: " << clients << " clients x " << requests
            << " requests against " << host << ":" << port << "\n";

  std::mutex mutex;
  std::vector<Outcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(clients * requests));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (long c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Outcome> local;
      local.reserve(static_cast<std::size_t>(requests));
      for (long r = 0; r < requests; ++r) {
        const TrafficClass cls = class_for(static_cast<int>(r));
        local.push_back(run_request(host,
                                    static_cast<std::uint16_t>(port), cls,
                                    static_cast<int>(c),
                                    static_cast<int>(r)));
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (Outcome& o : local) outcomes.push_back(std::move(o));
    });
  }
  for (std::thread& t : threads) t.join();

  const auto total = static_cast<long>(outcomes.size());
  long unanswered = 0;
  long unexpected = 0;
  long errors_5xx = 0;
  std::map<int, long> statuses;
  std::vector<double> latencies;
  std::string warm_payload;
  for (const Outcome& o : outcomes) {
    if (!o.answered) {
      ++unanswered;
      continue;
    }
    ++statuses[o.status];
    latencies.push_back(o.latency_ms);
    if (!o.expected) ++unexpected;
    if (o.status == 500) ++errors_5xx;
    if (o.cls == TrafficClass::kWarm && o.status == 200 &&
        warm_payload.empty()) {
      warm_payload = o.body;
    }
  }
  std::sort(latencies.begin(), latencies.end());

  // Bit-identical check: the served "result" object must equal the
  // library's lossless JSON for the same job at the same seed.
  bool identical = false;
  if (!warm_payload.empty()) {
    const std::string direct = strip_timing(direct_warm_result_json());
    identical = strip_timing(warm_payload).find(direct) !=
                std::string::npos;
  }

  const double error_rate =
      total == 0 ? 1.0
                 : static_cast<double>(unanswered + unexpected +
                                       errors_5xx) /
                       static_cast<double>(total);
  const double p50 = percentile(latencies, 50.0);
  const double p90 = percentile(latencies, 90.0);
  const double p99 = percentile(latencies, 99.0);
  const double max_ms = latencies.empty() ? 0.0 : latencies.back();

  std::cout << "  answered " << (total - unanswered) << "/" << total
            << ", unexpected " << unexpected << ", 5xx " << errors_5xx
            << ", identical " << (identical ? "yes" : "NO") << "\n";
  for (const auto& [status, count] : statuses) {
    std::cout << "  status " << status << ": " << count << "\n";
  }
  std::printf("  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
              p50, p90, p99, max_ms);

  std::ostringstream json;
  json << "{\"service\": {\"clients\": " << clients
       << ", \"requests_per_client\": " << requests
       << ", \"total\": " << total << ", \"statuses\": {";
  bool first = true;
  for (const auto& [status, count] : statuses) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << status << "\": " << count;
  }
  json << "}, \"unanswered\": " << unanswered
       << ", \"unexpected_status\": " << unexpected
       << ", \"identical\": " << (identical ? "true" : "false");
  char lat[160];
  std::snprintf(lat, sizeof(lat),
                ", \"latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, "
                "\"p99\": %.3f, \"max\": %.3f}, \"error_rate\": %.6f",
                p50, p90, p99, max_ms, error_rate);
  json << lat;

  // Server-side view: exercise the read-only endpoints once, then pull
  // /metrics and embed its per-endpoint latency histograms — the numbers
  // check_bench.py --service validates against the client-side ones.
  http_get(host, static_cast<std::uint16_t>(port), "/healthz");
  http_get(host, static_cast<std::uint16_t>(port), "/trace");
  http_get(host, static_cast<std::uint16_t>(port), "/metrics");
  const std::string metrics_body =
      http_get(host, static_cast<std::uint16_t>(port), "/metrics");
  json << ", \"server_endpoints\": " << server_endpoint_json(metrics_body)
       << "}}";
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    out << json.str() << "\n";
    std::cout << "  wrote " << json_out << "\n";
  } else {
    std::cout << json.str() << "\n";
  }

  const bool ok = unanswered == 0 && unexpected == 0 && identical;
  if (!ok) {
    std::cerr << "service_load: FAILED (unanswered=" << unanswered
              << " unexpected=" << unexpected
              << " identical=" << (identical ? "true" : "false") << ")\n";
  }
  return ok ? 0 : 1;
}
