// The benchmark's workloads. Each runs in its own process, builds its
// inputs from the workload seed, times a fixed number of closed-loop jobs
// from one client thread, and gates every job on correctness outside the
// timed intervals.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/synthesis_engine.hpp"
#include "service/http.hpp"
#include "service/socket.hpp"
#include "support.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file for the traced run (may be empty)
};

/// One synthesis input of a flow workload; `weight` copies of it run in
/// every pass.
struct FlowInput {
  std::string name;
  fbmb::SequencingGraph graph;
  fbmb::Allocation allocation;
  fbmb::WashModel wash;
  fbmb::FlowPreset flow = fbmb::FlowPreset::kDcsa;
  int weight = 1;
};

/// The flow workloads' engine: SA restarts run serially on the job's
/// thread, so a timed job uses one thread.
fbmb::SynthesisEngineOptions flow_engine_options();

/// A job of `input` with the given placer seed.
fbmb::SynthesisJob make_job(const FlowInput& input, std::uint64_t placer_seed);

/// synthesize_dcsa / synthesize_baseline on the job's inputs (serial).
fbmb::SynthesisResult direct_call(const fbmb::SynthesisJob& job);

/// Counters the decomposed flow collects for the per-layer metrics.
struct FlowCounters {
  double restart_wait_s = 0.0;
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reused = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t rejections = 0;
  std::uint64_t postpone_steps = 0;
  std::uint64_t case1 = 0;
  std::uint64_t case2 = 0;
  std::uint64_t capped_jobs = 0;
  std::uint64_t cache_hits = 0;
  double route_s = 0.0;
  double grid_build_s = 0.0;
  double retime_s = 0.0;
};

/// The engine's job, made of the same public calls in the same order,
/// with a span around each: fingerprint_inputs, ResultCache::lookup,
/// schedule_bioassay (refine off) + refine_channel_storage, SA candidates
/// (restarts in order, as on the flow engine) or the BA placer, one
/// route_until_consistent per candidate, best by (completion, length,
/// wash), ResultCache::insert. A cache hit returns the cached result.
fbmb::SynthesisResult decomposed_flow(const fbmb::SynthesisJob& job,
                                      fbmb::ResultCache& cache, SpanLog& log,
                                      int job_id, FlowCounters& counters);

/// One keep-alive HTTP/1.1 connection to a server on 127.0.0.1.
class Client {
 public:
  explicit Client(std::uint16_t port);
  /// Sends one POST /synthesize and reads the whole response; false on
  /// any transport or framing failure.
  bool post(const std::string& body, fbmb::service::HttpResponseMessage& out);

 private:
  fbmb::service::Socket socket_;
};

/// The "result" member of a 200 /synthesize body (synthesize_body writes
/// it last), or empty.
std::string result_member(const std::string& body);

Report run_flow_workload(const RunConfig& config);
Report run_service_workload(const RunConfig& config);

/// Benchmark self-tests; returns the number of failed checks.
int run_self_tests();

}  // namespace e2e
