// table1_sweep and large_assays: closed-loop SynthesisEngine::run_job
// calls from one client thread; each timed job runs on that thread alone.

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <tuple>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "core/flow_core.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "schedule/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace fbmb;

namespace {

constexpr std::size_t kSetupRepeats = 7;
/// The gate's own pool; its workers sleep while a timed job runs.
constexpr std::size_t kGateWorkers = 3;
/// The gate runs at the end of a pass once this many jobs wait. Gating
/// every 4 jobs left each next timed job with caches the gate's threads
/// had just filled: in four back-to-back pairs of runs, table1_sweep read
/// 2-46% more CPU per job than with batches of 36 or 72 jobs.
constexpr std::size_t kGateBatch = 32;

constexpr std::uint64_t kJobSeedDomain = seed_domain("E2EJOBS");
constexpr std::uint64_t kWarmupSeedDomain = seed_domain("E2EWARM");

std::vector<FlowInput> table1_inputs();
std::vector<FlowInput> large_inputs();

struct FlowWorkload {
  std::vector<FlowInput> (*inputs)();
  /// Jobs per second on a 4-core x86 host at the parent of this benchmark;
  /// only turns --seconds into a fixed job count.
  double nominal_jobs_per_s;
  /// Floor on the job count: p90 needs 100 jobs for ten beyond it, and
  /// large_assays needs more, because its job cost depends heavily on the
  /// placer seed (20-1200 ms) and so on the workload seed.
  long min_jobs;
};

FlowWorkload flow_workload(const std::string& name) {
  if (name == "table1_sweep") return {table1_inputs, 70.0, 100};
  return {large_inputs, 3.6, 150};
}

int pass_size(const std::vector<FlowInput>& inputs) {
  int n = 0;
  for (const FlowInput& in : inputs) n += in.weight;
  return n;
}

struct JobRef {
  std::size_t input = 0;
  std::uint64_t placer_seed = 0;
};

/// The job list: `passes` passes over the inputs, each copy with its own
/// placer seed forked from the workload seed, so no job repeats another's
/// fingerprint and none hits the engine cache.
std::vector<JobRef> job_list(const std::vector<FlowInput>& inputs,
                             long passes, std::uint64_t seed) {
  std::vector<JobRef> jobs;
  std::uint64_t index = 0;
  for (long pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (int copy = 0; copy < inputs[i].weight; ++copy) {
        jobs.push_back({i, fork_seed(seed ^ kJobSeedDomain, index++)});
      }
    }
  }
  return jobs;
}

FlowInput benchmark_input(const Benchmark& bench, FlowPreset flow,
                          int weight) {
  FlowInput in;
  in.name = bench.name + (flow == FlowPreset::kDcsa ? "/DCSA" : "/BA");
  in.graph = bench.graph;
  in.allocation = Allocation(bench.allocation);
  in.wash = bench.wash;
  in.flow = flow;
  in.weight = weight;
  return in;
}

SynthesisResult assemble(const Allocation& allocation, Schedule schedule,
                         Placement placement, RoutingResult routing,
                         const ChipSpec& chip) {
  SynthesisResult result;
  result.stats = compute_schedule_stats(schedule, allocation);
  result.completion_time = result.stats.completion_time;
  result.utilization = result.stats.utilization;
  result.total_cache_time = result.stats.total_cache_time;
  result.channel_length_mm =
      routing.total_channel_length_mm(chip.cell_pitch_mm);
  result.channel_wash_time = routing.total_wash_time;
  result.chip = chip;
  result.schedule = std::move(schedule);
  result.placement = std::move(placement);
  result.routing = std::move(routing);
  return result;
}

struct Setup {
  std::vector<FlowInput> inputs;
  std::unique_ptr<SynthesisEngine> engine;
};

/// Input generation, engine start-up and a short compute-bound warm-up
/// (one pass over the Table I inputs at seeds no timed job uses).
Setup set_up(const FlowWorkload& workload, std::uint64_t seed) {
  Setup s;
  s.inputs = workload.inputs();
  s.engine = std::make_unique<SynthesisEngine>(flow_engine_options());
  const std::vector<FlowInput> warm = table1_inputs();
  std::uint64_t index = 0;
  for (const FlowInput& in : warm) {
    s.engine->run_job(
        make_job(in, fork_seed(seed ^ kWarmupSeedDomain, index++)));
  }
  return s;
}

/// The gate for one engine result: equal to the direct call at the same
/// seed, then the validators and (where converged) the simulator. Returns
/// the failure, or empty.
std::string gate(const SynthesisJob& job, const SynthesisResult& result) {
  try {
    if (result_identity_json(direct_call(job)) !=
        result_identity_json(result)) {
      return "engine result differs from the direct call";
    }
    return check_result(job.graph, job.allocation, job.wash, result);
  } catch (const std::exception& e) {
    return std::string("gate threw: ") + e.what();
  }
}

std::vector<FlowInput> table1_inputs() {
  // 17 jobs a pass. Six BA jobs (CPA/BA twice) sit below the overlapping
  // 8-11 ms clusters of PCR, IVD, Synthetic1 and CPA under DCSA, ranks 7-10
  // of a pass, so the p50 rank (8.5) falls in the middle of those;
  // Synthetic4/BA three times and Synthetic4/DCSA make the top cluster
  // (~34 ms, ranks 14-17), which holds the p90 rank (15.3). Neither
  // percentile sits on the boundary between two inputs' clusters.
  std::vector<FlowInput> out;
  for (const Benchmark& bench : paper_benchmarks()) {
    out.push_back(benchmark_input(bench, FlowPreset::kDcsa, 1));
    const int ba_weight =
        bench.name == "CPA" ? 2 : (bench.name == "Synthetic4" ? 3 : 1);
    out.push_back(benchmark_input(bench, FlowPreset::kBaseline, ba_weight));
  }
  return out;
}

std::vector<FlowInput> large_inputs() {
  // Fixed graph seeds 1-6, 70 operations each, on Synthetic4's allocation.
  // Some placer seeds drive their fixpoint to the 20-round cap; those jobs
  // stay in (see core.capped_frac).
  std::vector<FlowInput> out;
  for (std::uint64_t g = 1; g <= 6; ++g) {
    SyntheticSpec spec;
    spec.operations = 70;
    spec.seed = g;
    spec.allocation = {7, 4, 4, 3};
    FlowInput in;
    in.name = "Synth70-g" + std::to_string(g) + "/DCSA";
    in.graph = generate_synthetic_graph(spec);
    in.allocation = Allocation(spec.allocation);
    in.flow = FlowPreset::kDcsa;
    out.push_back(std::move(in));
  }
  return out;
}

/// What the engine's preset wrappers force before synthesize_custom.
SynthesisOptions preset_options(SynthesisOptions options, FlowPreset flow) {
  if (flow == FlowPreset::kDcsa) {
    options.scheduler.policy = BindingPolicy::kDcsa;
    options.scheduler.refine_storage = true;
    options.router.wash_aware_weights = true;
    options.router.conflict_aware = true;
    options.placement = PlacementStrategy::kSimulatedAnnealing;
  } else if (flow == FlowPreset::kBaseline) {
    options.scheduler.policy = BindingPolicy::kBaseline;
    options.scheduler.refine_storage = false;
    options.router.wash_aware_weights = false;
    options.router.conflict_aware = true;
    options.placement = PlacementStrategy::kConstructive;
  }
  return options;
}

}  // namespace

SynthesisEngineOptions flow_engine_options() {
  // SA restarts run one after another on the job's thread. Fanned out over
  // a pool, each job waited for whichever restart thread a shared host ran
  // last, and jobs/s spread across runs of the same code far more than CPU
  // per job did. The one pool worker the engine needs stays idle.
  SynthesisEngineOptions options;
  options.threads = 1;
  options.parallel_restarts = false;
  return options;
}

SynthesisJob make_job(const FlowInput& input, std::uint64_t placer_seed) {
  SynthesisJob job;
  job.name = input.name;
  job.graph = input.graph;
  job.allocation = input.allocation;
  job.wash = input.wash;
  job.flow = input.flow;
  job.options.placer.seed = placer_seed;
  return job;
}

SynthesisResult direct_call(const SynthesisJob& job) {
  switch (job.flow) {
    case FlowPreset::kDcsa:
      return synthesize_dcsa(job.graph, job.allocation, job.wash,
                             job.options);
    case FlowPreset::kBaseline:
      return synthesize_baseline(job.graph, job.allocation, job.wash,
                                 job.options);
    case FlowPreset::kCustom:
      break;
  }
  return synthesize_custom(job.graph, job.allocation, job.wash, job.options);
}

SynthesisResult decomposed_flow(const SynthesisJob& job, ResultCache& cache,
                                SpanLog& log, int job_id,
                                FlowCounters& counters) {
  const int root = log.open("runtime", "job", -1, job_id);

  int span = log.open("runtime", "fingerprint", root, job_id);
  const Fingerprint fp = fingerprint_inputs(job.graph, job.allocation,
                                            job.wash, job.options, job.flow);
  log.close(span);
  span = log.open("runtime", "cache_lookup", root, job_id);
  std::optional<SynthesisResult> cached = cache.lookup(fp);
  log.close(span);
  if (cached) {
    ++counters.cache_hits;
    log.close(root);
    return std::move(*cached);
  }

  const SynthesisOptions options = preset_options(job.options, job.flow);
  SchedulerOptions scheduler_options = options.scheduler;
  scheduler_options.refine_storage = false;
  SchedStats sched_stats;
  span = log.open("schedule", "schedule", root, job_id);
  Schedule schedule = schedule_bioassay(job.graph, job.allocation, job.wash,
                                        scheduler_options, &sched_stats);
  log.close(span);
  if (options.scheduler.refine_storage) {
    span = log.open("schedule", "refine", root, job_id);
    refine_channel_storage(schedule);
    log.close(span);
  }
  counters.case1 += sched_stats.case1_bindings;
  counters.case2 += sched_stats.case2_bindings;

  const ChipSpec chip = derive_grid(
      options.chip,
      allocation_area(job.allocation, options.chip.component_spacing));

  std::vector<Placement> candidates;
  PlaceStats place_stats;
  const int place_span = log.open("place", "place", root, job_id);
  if (options.placement == PlacementStrategy::kConstructive) {
    candidates.push_back(place_components_baseline(
        job.allocation, schedule, chip, options.baseline_placer));
  } else {
    PlacerOptions placer = options.placer;
    placer.restart_executor = [&](std::vector<std::function<void()>>& tasks) {
      // Runs the restarts in order on this thread, as the flow engine
      // does, and times each.
      const std::int64_t entry = now_ns();
      for (std::function<void()>& task : tasks) {
        Span s;
        s.layer = "place";
        s.name = "restart";
        s.parent = place_span;
        s.job = job_id;
        s.start_ns = now_ns();
        task();
        s.end_ns = now_ns();
        counters.restart_wait_s +=
            static_cast<double>(s.start_ns - entry) * 1e-9;
        log.add(s);
      }
    };
    candidates = place_component_candidates(job.allocation, schedule,
                                            job.wash, chip, placer,
                                            &place_stats);
  }
  log.close(place_span);
  counters.proposals += place_stats.proposals;
  counters.accepts += place_stats.accepts;

  SynthesisResult best;
  bool have_best = false;
  FlowStats flow_total;
  for (Placement& placement : candidates) {
    Schedule trial = schedule;
    StageTimes stages;
    FlowStats flow;
    span = log.open("core", "fixpoint", root, job_id);
    RoutingResult routing = route_until_consistent(
        trial, job.graph, job.allocation, chip, placement, job.wash,
        options.router, stages, options.checkpoint, &flow);
    log.close(span);
    counters.route_s += stages.route;
    counters.grid_build_s += stages.grid_build;
    counters.retime_s += stages.retime;
    counters.nodes_expanded += routing.stats.nodes_expanded;
    counters.rejections += routing.stats.feasibility_rejections;
    counters.postpone_steps += routing.stats.postponement_steps;
    flow_total += flow;
    SynthesisResult result =
        assemble(job.allocation, std::move(trial), std::move(placement),
                 std::move(routing), chip);
    const auto key = [](const SynthesisResult& r) {
      return std::make_tuple(r.completion_time, r.channel_length_mm,
                             r.channel_wash_time);
    };
    if (!have_best || key(result) < key(best)) {
      best = std::move(result);
      have_best = true;
    }
  }
  counters.rounds += flow_total.rounds;
  counters.reused += flow_total.transports_reused;
  counters.rerouted += flow_total.transports_rerouted;
  if (best.routing.stats.fixpoints_capped > 0) ++counters.capped_jobs;
  best.place_stats = place_stats;
  best.sched_stats = sched_stats;
  best.flow_stats = std::move(flow_total);

  span = log.open("runtime", "cache_insert", root, job_id);
  cache.insert(fp, best);
  log.close(span);
  log.close(root);
  return best;
}

Report run_flow_workload(const RunConfig& config) {
  Report report;
  const FlowWorkload workload = flow_workload(config.workload);

  std::vector<double> setup_seconds;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = set_up(workload, config.seed);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  Setup setup = timed_setup();
  SynthesisEngine& engine = *setup.engine;
  const std::vector<FlowInput>& inputs = setup.inputs;

  const int per_pass = pass_size(inputs);
  long passes = std::lround(config.seconds * workload.nominal_jobs_per_s /
                            per_pass);
  passes = std::max(passes, (workload.min_jobs + per_pass - 1) / per_pass);
  // The traced run executes every job twice (run_job and the decomposed
  // flow), so it runs half the passes.
  if (config.trace) passes = std::max(1L, passes / 2);
  const std::vector<JobRef> jobs = job_list(inputs, passes, config.seed);
  report.line("inputs " + std::to_string(inputs.size()) + ", jobs per pass " +
              std::to_string(per_pass) + ", passes " +
              std::to_string(passes) + ", SA restarts serial on the client "
              "thread");

  TimedJobs timed;
  double traced_s = 0.0;
  double overhead_s = 0.0;
  SpanLog log;
  FlowCounters counters;
  ResultCache decomposed_cache(engine.cache().capacity());

  // Gated jobs wait in batches whose direct calls, validators and
  // simulator runs share the gate's pool between timed jobs.
  ThreadPool gate_pool(kGateWorkers);
  std::vector<std::pair<SynthesisJob, SynthesisResult>> pending;
  const auto drain_gate = [&] {
    std::vector<std::string> verdicts(pending.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      tasks.push_back([&, i] {
        verdicts[i] = gate(pending[i].first, pending[i].second);
      });
    }
    parallel_invoke(gate_pool, tasks);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (verdicts[i].empty()) {
        timed.add_quality(pending[i].second);
      } else {
        report.fail(pending[i].first.name + ": " + verdicts[i]);
      }
    }
    pending.clear();
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (setup_due(setup_seconds.size(), kSetupRepeats, j, jobs.size())) {
      timed_setup();  // a repetition; its engine is dropped untimed
    }
    const SynthesisJob job =
        make_job(inputs[jobs[j].input], jobs[j].placer_seed);
    ++report.attempted;
    try {
      JobOutcome outcome;
      SynthesisResult decomposed;
      const auto untraced_leg = [&] {
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        outcome = engine.run_job(job);
        const auto t1 = Clock::now();
        timed.cpu_s += process_cpu_seconds() - cpu0;
        timed.wall_s += seconds_between(t0, t1);
        timed.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
        overhead_s += outcome.wall_seconds - outcome.result.cpu_seconds;
      };
      const auto traced_leg = [&] {
        const auto t0 = Clock::now();
        decomposed = decomposed_flow(job, decomposed_cache, log,
                                     static_cast<int>(j), counters);
        traced_s += seconds_between(t0, Clock::now());
      };
      if (!config.trace) {
        untraced_leg();
      } else if (j % 2 == 0) {  // alternate which leg runs first
        untraced_leg();
        traced_leg();
      } else {
        traced_leg();
        untraced_leg();
      }

      // ---- Correctness gate, outside the timed intervals. ----
      if (outcome.cache_hit) {
        report.fail(job.name + ": unexpected engine cache hit");
      } else if (config.trace && result_identity_json(decomposed) !=
                                     result_identity_json(outcome.result)) {
        report.fail(job.name + ": decomposed flow differs from run_job");
      } else {
        pending.emplace_back(job, std::move(outcome.result));
      }
    } catch (const std::exception& e) {
      report.fail(job.name + ": threw: " + e.what());
    }
    if ((j + 1) % static_cast<std::size_t>(per_pass) == 0 &&
        pending.size() >= kGateBatch) {
      drain_gate();
    }
  }
  drain_gate();
  while (setup_seconds.size() < kSetupRepeats) timed_setup();

  if (!config.trace) {
    add_end_to_end_metrics(report, median(setup_seconds), timed);
    return report;
  }

  if (!config.trace_out.empty() && !log.write_chrome_json(config.trace_out)) {
    report.line("could not write " + config.trace_out);
  }
  std::map<std::string, double> runtime_s;  // by span name
  for (const Span& s : log.spans()) {
    if (std::string(s.layer) == "runtime") {
      runtime_s[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> layer_s = log.layer_self_seconds();
  const double n = static_cast<double>(std::max<long>(1, report.attempted));
  const auto per_job = [&](double total, double scale) {
    return total * scale / n;
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  LayerMetrics m;
  m.place_self_ms = per_job(layer_s["place"], 1e3);
  m.place_restart_wait_ms = per_job(counters.restart_wait_s, 1e3);
  m.place_proposals = per_job(count(counters.proposals), 1.0);
  m.place_accept_frac = ratio(count(counters.accepts),
                              count(counters.proposals));
  m.core_fixpoint_ms = per_job(layer_s["core"], 1e3);
  m.core_rounds = per_job(count(counters.rounds), 1.0);
  m.core_capped_frac = per_job(count(counters.capped_jobs), 1.0);
  m.route_self_ms = per_job(counters.route_s, 1e3);
  m.route_grid_build_ms = per_job(counters.grid_build_s, 1e3);
  m.route_reuse_frac = ratio(count(counters.reused),
                             count(counters.reused + counters.rerouted));
  m.route_nodes_expanded = per_job(count(counters.nodes_expanded), 1.0);
  m.route_rejections = per_job(count(counters.rejections), 1.0);
  m.route_postpone_steps = per_job(count(counters.postpone_steps), 1.0);
  m.schedule_self_ms = per_job(layer_s["schedule"], 1e3);
  m.schedule_retime_ms = per_job(counters.retime_s, 1e3);
  m.schedule_case1_frac =
      ratio(count(counters.case1), count(counters.case1 + counters.case2));
  m.runtime_fingerprint_us = per_job(runtime_s["fingerprint"], 1e6);
  m.runtime_cache_lookup_us = per_job(runtime_s["cache_lookup"], 1e6);
  m.runtime_cache_insert_us = per_job(runtime_s["cache_insert"], 1e6);
  m.runtime_hit_frac = per_job(count(counters.cache_hits), 1.0);
  m.runtime_overhead_ms = per_job(overhead_s, 1e3);
  m.trace_overhead_frac = ratio(traced_s - timed.wall_s, traced_s);
  add_layer_metrics(report, m);
  report.line("traced job wall " + std::to_string(per_job(traced_s, 1e3)) +
              " ms, of which core fixpoint " +
              std::to_string(100.0 * ratio(layer_s["core"], traced_s)) +
              "%; place " + std::to_string(m.place_self_ms) + " ms");
  return report;
}

}  // namespace e2e
