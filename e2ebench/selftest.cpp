// Self-tests of the benchmark's own rules: the percentile rule and its
// printed sample counts, self time under overlapping children, the
// decomposed flow's bit-identity with run_job, and service_warm's
// byte-identity with the direct call.

#include <cstdio>
#include <optional>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "graph/assay_parser.hpp"
#include "report/json.hpp"
#include "runtime/result_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace fbmb;

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

void percentile_rule() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  std::size_t beyond = 0;
  expect(percentile(hundred, 0.50, &beyond) == 50.0 && beyond == 50,
         "p50 of 1..100 is 50 with 50 samples beyond");
  expect(percentile(hundred, 0.90, &beyond) == 90.0 && beyond == 10,
         "p90 of 1..100 is 90 with 10 samples beyond");
  std::vector<double> fourteen;
  for (int i = 1; i <= 14; ++i) fourteen.push_back(i);
  expect(percentile(fourteen, 0.50, &beyond) == 7.0 && beyond == 7,
         "p50 of 14 samples is rank 7 (nearest rank)");
  expect(percentile({3.0}, 0.90, &beyond) == 3.0 && beyond == 0,
         "p90 of one sample is that sample");
  expect(percentile({}, 0.90, &beyond) == 0.0 && beyond == 0,
         "p90 of no samples is 0 with none beyond");
  Report report;
  add_latency_metrics(report, hundred);
  expect(report.lines.size() == 1 &&
             report.lines[0] ==
                 "latency samples 100, beyond p50 50, beyond p90 10",
         "latency report prints the sample count and counts beyond");
}

void self_time_rule() {
  SpanLog log;
  const int parent = log.add({"place", "place", 0, 100, -1, 0});
  log.add({"place", "restart", 10, 50, parent, 0});
  log.add({"place", "restart", 20, 60, parent, 0});  // overlaps the first
  log.add({"place", "restart", 70, 80, parent, 0});
  log.add({"place", "restart", 95, 130, parent, 0});  // ends past the parent
  const std::vector<double> self = log.self_seconds();
  // Union of children inside [0, 100]: [10, 60] + [70, 80] + [95, 100].
  expect(self[0] == 35e-9, "self time subtracts the union of overlapping "
                           "children, clipped to the parent");
  expect(self[1] == 40e-9 && self[4] == 35e-9,
         "childless spans keep their whole duration");
  const auto layers = log.layer_self_seconds();
  expect(layers.at("place") == (35 + 40 + 40 + 10 + 35) * 1e-9,
         "layer self time sums its spans' self times");
}

void decomposed_matches(const SynthesisJob& job, const std::string& label,
                        bool want_capped) {
  SynthesisEngine engine(flow_engine_options());
  ResultCache cache(8);
  SpanLog log;
  FlowCounters counters;
  const JobOutcome outcome = engine.run_job(job);
  const SynthesisResult decomposed =
      decomposed_flow(job, cache, log, 0, counters);
  expect(result_identity_json(decomposed) ==
             result_identity_json(outcome.result),
         label + ": decomposed flow is bit-identical to run_job");
  if (want_capped) {
    expect(outcome.result.routing.stats.fixpoints_capped > 0 &&
               counters.capped_jobs == 1,
           label + ": the job's fixpoint hits the round cap");
  }
  // A second decomposed run hits the benchmark's own cache.
  const SynthesisResult again = decomposed_flow(job, cache, log, 1, counters);
  expect(counters.cache_hits == 1 && result_identity_json(again) ==
                                         result_identity_json(decomposed),
         label + ": a decomposed cache hit returns the same result");
}

void flow_identity() {
  const Benchmark pcr = make_pcr();
  FlowInput in;
  in.name = "PCR/DCSA";
  in.graph = pcr.graph;
  in.allocation = Allocation(pcr.allocation);
  in.wash = pcr.wash;
  in.flow = FlowPreset::kDcsa;
  decomposed_matches(make_job(in, 11), "PCR under DCSA", false);

  const Benchmark cpa = make_cpa();
  in.name = "CPA/BA";
  in.graph = cpa.graph;
  in.allocation = Allocation(cpa.allocation);
  in.wash = cpa.wash;
  in.flow = FlowPreset::kBaseline;
  decomposed_matches(make_job(in, 12), "CPA under BA", false);

  // A 70-operation job whose fixpoint is capped at 20 rounds.
  SyntheticSpec spec;
  spec.operations = 70;
  spec.seed = 3;
  spec.allocation = {7, 4, 4, 3};
  in.name = "Synth70-g3/DCSA";
  in.graph = generate_synthetic_graph(spec);
  in.allocation = Allocation(spec.allocation);
  in.wash = WashModel{};
  in.flow = FlowPreset::kDcsa;
  decomposed_matches(make_job(in, fork_seed(777, 32)), "capped 70-op job",
                     true);
}

void service_identity() {
  service::ServerOptions options;
  options.engine.threads = 1;
  service::SynthServer server(options);
  server.start();
  {
  Client client(server.port());

  SyntheticSpec spec;
  spec.operations = 16;
  spec.seed = 16;
  spec.allocation = {4, 2, 2, 2};
  const std::string text =
      write_assay(generate_synthetic_graph(spec), &spec.allocation);
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"named", "{\"benchmark\": \"IVD\", \"seed\": 5}"},
      {"inline", "{\"assay\": " + json_quote(text) +
                     ", \"flow\": \"baseline\", \"seed\": 6}"}};
  for (const auto& [label, body] : requests) {
    std::string error;
    const std::optional<service::SynthesizeRequest> req =
        service::parse_synthesize_request(body, error);
    expect(req.has_value(), label + " request parses in-process");
    if (!req) continue;
    const std::string want = result_identity_json(direct_call(req->job));
    for (const char* pass : {"miss", "hit"}) {
      service::HttpResponseMessage response;
      const bool same = client.post(body, response) &&
                        response.status == 200 &&
                        (response.body.find("\"cache_hit\": true") !=
                         std::string::npos) == (std::string(pass) == "hit") &&
                        strip_run_telemetry(result_member(response.body)) ==
                            want;
      expect(same, label + " request (" + pass +
                       "): served result is byte-identical to the direct "
                       "call");
    }
  }
  }
  server.shutdown();
}

}  // namespace

int run_self_tests() {
  percentile_rule();
  self_time_rule();
  flow_identity();
  service_identity();
  std::printf("%d self-test check(s) failed\n", g_failed);
  return g_failed;
}

}  // namespace e2e
