// service_warm: an in-process SynthServer on 127.0.0.1 (port 0, one engine
// worker) driven over one keep-alive connection by one closed-loop client.
// Set-up sends every distinct request once, so each timed request is a
// cache hit and the flow layers stay idle: the workload isolates what
// HTTP, the protocol and the lossless result JSON add to a direct call.

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "graph/assay_parser.hpp"
#include "report/json.hpp"
#include "runtime/result_cache.hpp"
#include "service/http.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace fbmb;
using namespace fbmb::service;

namespace {

constexpr std::size_t kSetupRepeats = 5;
constexpr long kMinRequests = 100;
/// Requests per second on a 4-core x86 host at the parent of this
/// benchmark; only turns --seconds into a fixed request count.
constexpr double kNominalRequestsPerS = 2300.0;
constexpr std::uint64_t kRequestSeedDomain = seed_domain("E2ESERV");

struct RequestSpec {
  std::string label;
  std::string body;
};

/// Request seeds must survive the JSON number (double) round trip.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index) {
  return fork_seed(seed ^ kRequestSeedDomain, index) >> 11;
}

/// DCSA requests per input, each with its own placer seed (BA's result
/// does not depend on the seed, so BA gets one).
constexpr int kDcsaSeeds = 4;

std::string request_body(const std::string& what, const char* flow,
                         std::uint64_t seed) {
  return "{" + what + ", \"flow\": \"" + flow +
         "\", \"seed\": " + std::to_string(seed) + "}";
}

/// The distinct requests: the named Table I benchmarks and inline assay
/// text of three synthetic graphs, under DCSA and BA.
std::vector<RequestSpec> request_mix(std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const Benchmark& bench : paper_benchmarks()) {
    inputs.emplace_back(bench.name, "\"benchmark\": " + json_quote(bench.name));
  }
  for (const int ops : {16, 24, 32}) {
    SyntheticSpec spec;
    spec.operations = ops;
    spec.seed = static_cast<std::uint64_t>(ops);
    spec.allocation = {4, 2, 2, 2};
    const std::string text =
        write_assay(generate_synthetic_graph(spec), &spec.allocation);
    inputs.emplace_back("inline" + std::to_string(ops),
                        "\"assay\": " + json_quote(text));
  }
  std::vector<RequestSpec> out;
  std::uint64_t index = 0;
  for (const auto& [label, what] : inputs) {
    for (int s = 0; s < kDcsaSeeds; ++s) {
      out.push_back({label + "/dcsa",
                     request_body(what, "dcsa", request_seed(seed, index++))});
    }
    out.push_back({label + "/baseline",
                   request_body(what, "baseline", request_seed(seed, index++))});
  }
  return out;
}

struct Setup {
  std::vector<RequestSpec> mix;
  std::unique_ptr<SynthServer> server;
  std::unique_ptr<Client> client;

  void tear_down() {
    client.reset();
    if (server) server->shutdown();
    server.reset();
  }
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  s.mix = request_mix(seed);
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.engine.threads = 1;
  s.server = std::make_unique<SynthServer>(options);
  s.server->start();
  s.client = std::make_unique<Client>(s.server->port());
  // Fill pass (every distinct request once: cache misses), then one pass
  // of hits as warm-up.
  HttpResponseMessage response;
  for (int pass = 0; pass < 2; ++pass) {
    for (const RequestSpec& r : s.mix) {
      if (!s.client->post(r.body, response) || response.status != 200) {
        throw std::runtime_error("set-up request " + r.label + " failed");
      }
    }
  }
  return s;
}

double wall_seconds_member(const std::string& body) {
  const std::string key = "\"wall_seconds\": ";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + key.size(), nullptr);
}

bool cache_hit_member(const std::string& body) {
  return body.find("\"cache_hit\": true") != std::string::npos;
}

/// The client, the connection handler and the engine worker hand each
/// request on in turn, so only one of them runs at a time. On one CPU
/// those hand-offs are context switches; spread over several CPUs each
/// is a cross-CPU wake-up whose cost depends on where the scheduler put
/// the threads, which made round trips differ by 15% between runs.
void pin_to_one_cpu(Report& report) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      report.line("pinned to cpu " + std::to_string(cpu));
    }
    return;
  }
}

struct Reference {
  std::string identity;  ///< stripped direct-call result JSON
  SynthesisResult result;
  std::string violation;  ///< the direct call's own check failure, if any
};

}  // namespace

Client::Client(std::uint16_t port) {
  std::optional<Socket> conn = connect_to("127.0.0.1", port, 5000);
  if (!conn) throw std::runtime_error("cannot connect to the server");
  socket_ = std::move(*conn);
}

bool Client::post(const std::string& body, HttpResponseMessage& out) {
  const std::string wire =
      "POST /synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Connection: keep-alive\r\nContent-Type: application/json\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!socket_.send_all(wire, 30000)) return false;
  HttpLimits limits;
  limits.max_body = 64u << 20;
  HttpResponseParser parser(limits);
  char buffer[65536];
  while (parser.status() == ParseStatus::kNeedMore) {
    std::size_t received = 0;
    const IoStatus io =
        socket_.read_some(buffer, sizeof(buffer), 60000, received);
    if (io != IoStatus::kOk) return false;
    parser.feed(buffer, received);
  }
  if (parser.status() != ParseStatus::kDone) return false;
  out = parser.message();
  return true;
}

std::string result_member(const std::string& body) {
  const std::string key = ", \"result\": ";
  const std::size_t at = body.rfind(key);
  if (at == std::string::npos || body.back() != '}') return {};
  return body.substr(at + key.size(), body.size() - 1 - at - key.size());
}

Report run_service_workload(const RunConfig& config) {
  Report report;
  pin_to_one_cpu(report);
  std::vector<double> setup_seconds;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = set_up(config.seed);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  Setup setup = timed_setup();
  const auto repeat_setup = [&] { timed_setup().tear_down(); };
  const std::vector<RequestSpec>& mix = setup.mix;

  // Gate references: the direct library call for every distinct request,
  // validated once (each timed response must match it byte for byte).
  std::vector<Reference> refs(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::string error;
    std::optional<SynthesizeRequest> req =
        parse_synthesize_request(mix[i].body, error);
    if (!req) throw std::runtime_error(mix[i].label + ": " + error);
    refs[i].result = direct_call(req->job);
    refs[i].identity = result_identity_json(refs[i].result);
    refs[i].violation = check_result(req->job.graph, req->job.allocation,
                                     req->job.wash, refs[i].result);
  }

  long count = std::lround(config.seconds * kNominalRequestsPerS);
  count = std::max(count, kMinRequests);
  if (config.trace) count = std::max(1L, count / 2);  // each is sent twice
  report.line("distinct requests " + std::to_string(mix.size()) +
              ", timed requests " + std::to_string(count) +
              ", engine workers 1, one keep-alive connection");

  TimedJobs timed;
  double traced_s = 0.0, engine_s = 0.0, bytes = 0.0;
  long hits = 0, responses = 0;
  /// (request index, engine wall) of every traced round trip.
  std::vector<std::pair<std::size_t, double>> traced;
  SpanLog log;

  HttpResponseMessage response;
  for (long k = 0; k < count; ++k) {
    if (setup_due(setup_seconds.size(), kSetupRepeats,
                  static_cast<std::size_t>(k),
                  static_cast<std::size_t>(count))) {
      repeat_setup();  // a second server, torn down untimed
    }
    const std::size_t which = static_cast<std::size_t>(k) % mix.size();
    const RequestSpec& spec = mix[which];
    ++report.attempted;
    const auto check = [&](const HttpResponseMessage& msg) {
      ++responses;
      if (cache_hit_member(msg.body)) ++hits;
      if (msg.status != 200) {
        report.fail(spec.label + ": HTTP " + std::to_string(msg.status));
        return false;
      }
      if (!refs[which].violation.empty()) {
        report.fail(spec.label + ": " + refs[which].violation);
        return false;
      }
      if (strip_run_telemetry(result_member(msg.body)) !=
          refs[which].identity) {
        report.fail(spec.label + ": served result differs from the direct "
                    "call");
        return false;
      }
      return true;
    };
    try {
      const auto untraced_leg = [&] {
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        const bool ok = setup.client->post(spec.body, response);
        const auto t1 = Clock::now();
        timed.cpu_s += process_cpu_seconds() - cpu0;
        if (!ok) throw std::runtime_error("connection failed");
        timed.wall_s += seconds_between(t0, t1);
        timed.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
        return check(response);
      };
      const auto traced_leg = [&] {
        const int span =
            log.open("service", "roundtrip", -1, static_cast<int>(k));
        const bool ok = setup.client->post(spec.body, response);
        log.close(span);
        if (!ok) throw std::runtime_error("connection failed");
        const Span& s = log.spans()[static_cast<std::size_t>(span)];
        traced_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        traced.emplace_back(which, wall_seconds_member(response.body));
        engine_s += traced.back().second;
        bytes += static_cast<double>(response.body.size());
        return check(response);
      };
      bool ok = true;
      if (!config.trace) {
        ok = untraced_leg();
      } else if (k % 2 == 0) {  // alternate which leg runs first
        ok = untraced_leg() && traced_leg();
      } else {
        ok = traced_leg() && untraced_leg();
      }
      if (ok) timed.add_quality(refs[which].result);
    } catch (const std::exception& e) {
      report.fail(spec.label + ": " + e.what());
      setup.client = std::make_unique<Client>(setup.server->port());
    }
  }

  // The server side of each traced hit, timed in-process on the same
  // bodies after the request loop, so it does not perturb the round trips.
  double parse_s = 0.0, fingerprint_s = 0.0, lookup_s = 0.0, body_s = 0.0;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const auto [which, engine_wall] = traced[k];
    const RequestSpec& spec = mix[which];
    const int job = static_cast<int>(k);
    const int root = log.open("service", "server_side", -1, job);
    const int parse_span = log.open("service", "parse", root, job);
    std::string error;
    std::optional<SynthesizeRequest> req =
        parse_synthesize_request(spec.body, error);
    log.close(parse_span);
    if (!req) throw std::runtime_error(error);
    const int fingerprint_span = log.open("runtime", "fingerprint", root, job);
    JobOutcome outcome;
    outcome.name = req->job.name;
    outcome.fingerprint =
        fingerprint_inputs(req->job.graph, req->job.allocation, req->job.wash,
                           req->job.options, req->job.flow);
    log.close(fingerprint_span);
    const int lookup_span = log.open("runtime", "cache_lookup", root, job);
    std::optional<SynthesisResult> cached =
        setup.server->engine().cache().lookup(outcome.fingerprint);
    log.close(lookup_span);
    if (!cached) throw std::runtime_error("in-process lookup missed");
    outcome.result = std::move(*cached);
    outcome.cache_hit = true;
    outcome.wall_seconds = engine_wall;
    const int body_span = log.open("service", "body", root, job);
    const std::string body = synthesize_body(outcome);
    log.close(body_span);
    log.close(root);
    const auto seconds = [&](int index) {
      const Span& s = log.spans()[static_cast<std::size_t>(index)];
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    };
    parse_s += seconds(parse_span);
    fingerprint_s += seconds(fingerprint_span);
    lookup_s += seconds(lookup_span);
    body_s += seconds(body_span);
    if (strip_run_telemetry(result_member(body)) != refs[which].identity) {
      report.fail(spec.label + ": in-process body differs from the direct "
                  "call");
    }
  }
  setup.tear_down();
  while (setup_seconds.size() < kSetupRepeats) repeat_setup();

  if (!config.trace) {
    add_end_to_end_metrics(report, median(setup_seconds), timed);
    return report;
  }

  if (!config.trace_out.empty() && !log.write_chrome_json(config.trace_out)) {
    report.line("could not write " + config.trace_out);
  }
  const double t = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  LayerMetrics m;
  m.runtime_fingerprint_us = fingerprint_s * 1e6 / t;
  m.runtime_cache_lookup_us = lookup_s * 1e6 / t;
  m.runtime_hit_frac = ratio(static_cast<double>(hits),
                             static_cast<double>(responses));
  // A hit runs no flow, so all of run_job's wall is runtime overhead.
  m.runtime_overhead_ms = engine_s * 1e3 / t;
  m.service_roundtrip_ms = traced_s * 1e3 / t;
  m.service_engine_ms = engine_s * 1e3 / t;
  m.service_parse_us = parse_s * 1e6 / t;
  m.service_body_us = body_s * 1e6 / t;
  m.service_http_ms = m.service_roundtrip_ms - m.service_engine_ms -
                      (m.service_parse_us + m.service_body_us) * 1e-3;
  m.service_response_kb = bytes / 1024.0 / t;
  m.trace_overhead_frac = ratio(traced_s - timed.wall_s, traced_s);
  add_layer_metrics(report, m);
  return report;
}

}  // namespace e2e
