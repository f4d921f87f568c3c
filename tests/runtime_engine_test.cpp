#include "runtime/synthesis_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "runtime/result_io.hpp"

namespace fbmb {
namespace {

std::vector<SynthesisJob> small_jobs(FlowPreset flow = FlowPreset::kDcsa) {
  std::vector<SynthesisJob> jobs;
  for (const Benchmark& bench :
       {make_pcr(), make_ivd(), make_paper_example()}) {
    SynthesisJob job;
    job.name = bench.name;
    job.graph = bench.graph;
    job.allocation = Allocation(bench.allocation);
    job.wash = bench.wash;
    job.flow = flow;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_metrics_identical(const SynthesisResult& a,
                              const SynthesisResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.completion_time, b.completion_time) << label;
  EXPECT_EQ(a.utilization, b.utilization) << label;
  EXPECT_EQ(a.channel_length_mm, b.channel_length_mm) << label;
  EXPECT_EQ(a.total_cache_time, b.total_cache_time) << label;
  EXPECT_EQ(a.channel_wash_time, b.channel_wash_time) << label;
  EXPECT_EQ(a.schedule.completion_time, b.schedule.completion_time) << label;
  ASSERT_EQ(a.placement.size(), b.placement.size()) << label;
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    const ComponentId id{static_cast<int>(i)};
    EXPECT_EQ(a.placement.at(id).origin, b.placement.at(id).origin) << label;
    EXPECT_EQ(a.placement.at(id).rotated, b.placement.at(id).rotated)
        << label;
  }
  ASSERT_EQ(a.routing.paths.size(), b.routing.paths.size()) << label;
  for (std::size_t i = 0; i < a.routing.paths.size(); ++i) {
    EXPECT_EQ(a.routing.paths[i].cells, b.routing.paths[i].cells)
        << label << " path " << i;
  }
}

TEST(SynthesisEngine, ParallelBatchBitIdenticalToSerialFlows) {
  const auto jobs = small_jobs();

  SynthesisEngineOptions options;
  options.threads = 4;
  SynthesisEngine engine(options);
  const auto outcomes = engine.run_batch(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SynthesisResult serial = synthesize_dcsa(
        jobs[i].graph, jobs[i].allocation, jobs[i].wash, jobs[i].options);
    expect_metrics_identical(outcomes[i].result, serial, jobs[i].name);
    EXPECT_FALSE(outcomes[i].cache_hit);
  }
}

TEST(SynthesisEngine, ParallelRestartsMatchSerialRestarts) {
  const auto jobs = small_jobs();
  SynthesisEngineOptions parallel;
  parallel.threads = 4;
  parallel.parallel_restarts = true;
  SynthesisEngineOptions serial;
  serial.threads = 1;
  serial.parallel_restarts = false;
  SynthesisEngine parallel_engine(parallel);
  SynthesisEngine serial_engine(serial);
  const auto a = parallel_engine.run_batch(jobs);
  const auto b = serial_engine.run_batch(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_metrics_identical(a[i].result, b[i].result, a[i].name);
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
  }
}

TEST(SynthesisEngine, SecondPassHitsTheCache) {
  const auto jobs = small_jobs();
  SynthesisEngineOptions options;
  options.threads = 2;
  SynthesisEngine engine(options);

  const auto cold = engine.run_batch(jobs);
  const auto warm = engine.run_batch(jobs);
  ASSERT_EQ(warm.size(), jobs.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit);
    EXPECT_TRUE(warm[i].cache_hit) << warm[i].name;
    ASSERT_NE(warm[i].entry, nullptr) << warm[i].name;
    expect_metrics_identical(warm[i].entry->result, cold[i].result,
                             warm[i].name);
  }
  EXPECT_EQ(engine.cache().hits(), jobs.size());
  EXPECT_EQ(engine.cache().misses(), jobs.size());

  const auto snapshot = engine.telemetry().snapshot();
  EXPECT_EQ(snapshot.jobs_completed, 2 * jobs.size());
  EXPECT_EQ(snapshot.jobs_in_flight, 0u);
  EXPECT_GT(snapshot.stage_seconds.total(), 0.0);
}

TEST(SynthesisEngine, MissAndHitCarryTheSameEntry) {
  // A hit shares the entry the miss stored: one result, one set of JSON
  // bytes, however many times the job is answered. It copies nothing out
  // of the entry, so its own result stays empty.
  const SynthesisJob job = small_jobs().front();
  SynthesisEngine engine;
  const JobOutcome miss = engine.run_job(job);
  const JobOutcome hit = engine.run_job(job);
  ASSERT_FALSE(miss.cache_hit);
  ASSERT_TRUE(hit.cache_hit);
  ASSERT_NE(miss.entry, nullptr);
  EXPECT_EQ(hit.entry, miss.entry);
  EXPECT_EQ(miss.entry->result, miss.result);
  EXPECT_EQ(hit.entry->result, miss.result);
  EXPECT_EQ(hit.result, SynthesisResult{});
}

TEST(SynthesisEngine, FindCachedAnswersHitsAndCountsNoMiss) {
  // The hit path counts a hit as one cache hit and one finished job. A
  // miss counts nothing: run_job looks again and counts it then, so each
  // job adds one to hits + misses whichever path answers it.
  const SynthesisJob job = small_jobs().front();
  SynthesisEngine engine;
  EXPECT_FALSE(engine.find_cached(job).has_value());
  EXPECT_EQ(engine.cache().hits() + engine.cache().misses(), 0u);
  EXPECT_EQ(engine.telemetry().snapshot().jobs_submitted, 0u);

  const JobOutcome miss = engine.run_job(job);
  const std::optional<JobOutcome> hit = engine.find_cached(job);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->name, job.name);
  EXPECT_EQ(hit->fingerprint, miss.fingerprint);
  EXPECT_EQ(hit->entry, miss.entry);
  EXPECT_EQ(hit->result, SynthesisResult{});
  EXPECT_EQ(engine.cache().misses(), 1u);
  EXPECT_EQ(engine.cache().hits(), 1u);
  const Telemetry::Snapshot snap = engine.telemetry().snapshot();
  EXPECT_EQ(snap.jobs_submitted, 2u);
  EXPECT_EQ(snap.jobs_completed, 2u);
  EXPECT_EQ(snap.jobs_in_flight, 0u);
}

/// The "jobs" rows of a telemetry_json report with each row's cache_hit
/// and wall_seconds, which describe the run, replaced by "_".
std::string job_rows_without_run_fields(const std::string& json) {
  std::string masked;
  std::size_t from = json.find("\"jobs\": [");
  while (true) {
    std::size_t value = std::string::npos;
    for (const std::string key : {"\"cache_hit\": ", "\"wall_seconds\": "}) {
      const std::size_t at = json.find(key, from);
      if (at != std::string::npos) value = std::min(value, at + key.size());
    }
    if (value == std::string::npos) break;
    masked.append(json, from, value - from).append("_");
    from = json.find(',', value);
  }
  return masked.append(json, from);
}

TEST(SynthesisEngine, WarmBatchTelemetryMatchesTheColdPass) {
  // A warm batch's outcomes hold their results in the shared entries;
  // the report reads them there, so each job's row prints the stages and
  // counters of the run that produced its result.
  const auto jobs = small_jobs();
  SynthesisEngine engine;
  const auto cold = engine.run_batch(jobs);
  const auto warm = engine.run_batch(jobs);
  for (const JobOutcome& outcome : warm) ASSERT_TRUE(outcome.cache_hit);
  const std::string cold_json = engine.telemetry_json(cold);
  const std::string warm_json = engine.telemetry_json(warm);
  EXPECT_NE(warm_json.find("\"cache_hit\": true"), std::string::npos);
  EXPECT_EQ(job_rows_without_run_fields(warm_json),
            job_rows_without_run_fields(cold_json));
  const std::string ops = std::string("\"ops_scheduled\": ")
                              .append(std::to_string(
                                  jobs.front().graph.operation_count()));
  EXPECT_NE(warm_json.find(ops), std::string::npos);
}

TEST(SynthesisEngine, DifferentOptionsMissTheCache) {
  auto jobs = small_jobs();
  SynthesisEngine engine;
  const auto first = engine.run_batch(jobs);
  for (SynthesisJob& job : jobs) job.options.placer.seed = 99;
  const auto second = engine.run_batch(jobs);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_FALSE(second[i].cache_hit);
    EXPECT_NE(second[i].fingerprint, first[i].fingerprint);
  }
}

TEST(SynthesisEngine, BaselinePresetRunsBaselineFlow) {
  const auto jobs = small_jobs(FlowPreset::kBaseline);
  SynthesisEngine engine;
  const auto outcomes = engine.run_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SynthesisResult serial = synthesize_baseline(
        jobs[i].graph, jobs[i].allocation, jobs[i].wash, jobs[i].options);
    expect_metrics_identical(outcomes[i].result, serial, jobs[i].name);
  }
}

TEST(SynthesisEngine, InfeasibleJobPropagatesSchedulingError) {
  SynthesisJob job;
  job.name = "infeasible";
  const auto bench = make_pcr();
  job.graph = bench.graph;
  job.allocation = Allocation(AllocationSpec{0, 1, 0, 0});  // no mixers
  job.wash = bench.wash;
  SynthesisEngine engine;
  EXPECT_THROW(engine.run_batch({job}), SchedulingError);
  // The engine must stay usable after a failed batch.
  const auto ok = engine.run_batch(small_jobs());
  EXPECT_EQ(ok.size(), 3u);
}

TEST(SynthesisEngine, TelemetryJsonContainsPerJobSpans) {
  const auto jobs = small_jobs();
  SynthesisEngine engine;
  const auto outcomes = engine.run_batch(jobs);
  const std::string json = engine.telemetry_json(outcomes);
  for (const SynthesisJob& job : jobs) {
    EXPECT_NE(json.find("\"" + job.name + "\""), std::string::npos);
  }
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduling\""), std::string::npos);
  EXPECT_NE(json.find("\"binding_probes\""), std::string::npos);
  // It must parse with our own JSON reader.
  EXPECT_TRUE(jsonio::parse(json).has_value());

  // The scheduler counters aggregate across all (cache-missing) jobs: one
  // scheduling pass each, so ops_scheduled sums the graph sizes.
  const auto snapshot = engine.telemetry().snapshot();
  std::uint64_t total_ops = 0;
  for (const SynthesisJob& job : jobs) {
    total_ops += job.graph.operation_count();
  }
  EXPECT_EQ(snapshot.scheduling.ops_scheduled, total_ops);
  EXPECT_EQ(snapshot.scheduling.heap_pops, total_ops);
  EXPECT_EQ(snapshot.scheduling.case1_bindings +
                snapshot.scheduling.case2_bindings,
            total_ops);
  EXPECT_GT(snapshot.scheduling.binding_probes, 0u);
}

// Golden bytes pin every key, its position and its value's format: each
// counter holds a distinct value (the i-th counter i + 1, the j-th stage
// (j + 1) / 8), so a swapped, dropped or mis-keyed row changes the text.
TEST(Telemetry, ToJsonMatchesGoldenBytes) {
  Telemetry::Snapshot s;
  s.stage_seconds.schedule = 0.125;
  s.stage_seconds.refine = 0.25;
  s.stage_seconds.place = 0.375;
  s.stage_seconds.grid_build = 0.5;
  s.stage_seconds.route = 0.625;
  s.stage_seconds.retime = 0.75;
  s.jobs_submitted = 3;
  s.jobs_completed = 4;
  s.jobs_cancelled = 5;
  s.jobs_in_flight = 6;
  s.routing.tasks_routed = 7;
  s.routing.nodes_expanded = 8;
  s.routing.heap_pushes = 9;
  s.routing.feasibility_rejections = 10;
  s.routing.postponement_steps = 11;
  s.routing.distance_fields_built = 12;
  s.routing.fixpoints_capped = 13;
  s.flow.rounds = 14;
  s.flow.transports_rerouted = 15;
  s.flow.transports_reused = 16;
  s.flow.cells_evicted = 17;
  s.placement.proposals = 18;
  s.placement.accepts = 19;
  s.placement.delta_evals = 20;
  s.placement.full_evals = 21;
  s.placement.occupancy_probes = 22;
  s.scheduling.ops_scheduled = 23;
  s.scheduling.heap_pushes = 24;
  s.scheduling.heap_pops = 25;
  s.scheduling.binding_probes = 26;
  s.scheduling.case1_bindings = 27;
  s.scheduling.case2_bindings = 28;
  s.synthesis_seconds = 0.875;
  EXPECT_EQ(Telemetry::to_json(s, /*cache_hits=*/1, /*cache_misses=*/2,
                               /*max_queue_depth=*/29),
            R"({"stages": {"schedule": 0.125, "refine": 0.25, )"
            R"("place": 0.375, "grid_build": 0.5, "route": 0.625, )"
            R"("retime": 0.75, "total": 2.625}, )"
            R"("cache": {"hits": 1, "misses": 2}, )"
            R"("jobs": {"submitted": 3, "completed": 4, "cancelled": 5, )"
            R"("in_flight": 6}, )"
            R"("routing": {"tasks_routed": 7, "nodes_expanded": 8, )"
            R"("heap_pushes": 9, "feasibility_rejections": 10, )"
            R"("postponement_steps": 11, "distance_fields_built": 12, )"
            R"("fixpoints_capped": 13}, )"
            R"("flow": {"rounds": 14, "transports_rerouted": 15, )"
            R"("transports_reused": 16, "cells_evicted": 17}, )"
            R"("placement": {"proposals": 18, "accepts": 19, )"
            R"("delta_evals": 20, "full_evals": 21, "occupancy_probes": 22}, )"
            R"("scheduling": {"ops_scheduled": 23, "heap_pushes": 24, )"
            R"("heap_pops": 25, "binding_probes": 26, "case1_bindings": 27, )"
            R"("case2_bindings": 28}, )"
            R"("max_queue_depth": 29, "synthesis_seconds": 0.875})");
}

TEST(SynthesisEngine, TelemetryJsonJobMatchesGoldenBytes) {
  JobOutcome outcome;
  outcome.name = "PCR \"v2\"";
  outcome.fingerprint = Fingerprint{0x0123456789abcdefULL, 0xfedcba98ULL};
  outcome.cache_hit = true;
  outcome.wall_seconds = 1.0 / 3.0;
  SynthesisResult& r = outcome.result;
  r.stage_seconds.schedule = 0.125;
  r.stage_seconds.refine = 0.25;
  r.stage_seconds.place = 0.375;
  r.stage_seconds.grid_build = 0.5;
  r.stage_seconds.route = 0.625;
  r.stage_seconds.retime = 0.75;
  r.routing.stats.tasks_routed = 1;
  r.routing.stats.nodes_expanded = 2;
  r.routing.stats.heap_pushes = 3;
  r.routing.stats.feasibility_rejections = 4;
  r.routing.stats.postponement_steps = 5;
  r.routing.stats.distance_fields_built = 6;
  r.routing.stats.fixpoints_capped = 7;
  r.flow_stats.rounds = 8;
  r.flow_stats.transports_rerouted = 9;
  r.flow_stats.transports_reused = 10;
  r.flow_stats.cells_evicted = 11;
  r.place_stats.proposals = 12;
  r.place_stats.accepts = 13;
  r.place_stats.delta_evals = 14;
  r.place_stats.full_evals = 15;
  r.place_stats.occupancy_probes = 16;
  r.sched_stats.ops_scheduled = 17;
  r.sched_stats.heap_pushes = 18;
  r.sched_stats.heap_pops = 19;
  r.sched_stats.binding_probes = 20;
  r.sched_stats.case1_bindings = 21;
  r.sched_stats.case2_bindings = 22;
  r.completion_time = 123.4567890123;

  const std::string json = SynthesisEngine().telemetry_json({outcome});
  const std::string open = "\"jobs\": [\n    ";
  const std::size_t begin = json.find(open);
  ASSERT_NE(begin, std::string::npos);
  const std::size_t first = begin + open.size();
  const std::size_t end = json.rfind("\n  ]\n}");
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(json.substr(first, end - first),
            R"({"name": "PCR \"v2\"", )"
            R"("fingerprint": "00000000fedcba980123456789abcdef", )"
            R"("cache_hit": true, "wall_seconds": 0.333333333, )"
            R"("stages": {"schedule": 0.125, "refine": 0.25, )"
            R"("place": 0.375, "grid_build": 0.5, "route": 0.625, )"
            R"("retime": 0.75}, )"
            R"("routing": {"tasks_routed": 1, "nodes_expanded": 2, )"
            R"("heap_pushes": 3, "feasibility_rejections": 4, )"
            R"("postponement_steps": 5, "distance_fields_built": 6, )"
            R"("fixpoints_capped": 7}, )"
            R"("flow": {"rounds": 8, "transports_rerouted": 9, )"
            R"("transports_reused": 10, "cells_evicted": 11}, )"
            R"("placement": {"proposals": 12, "accepts": 13, )"
            R"("delta_evals": 14, "full_evals": 15, "occupancy_probes": 16}, )"
            R"("scheduling": {"ops_scheduled": 17, "heap_pushes": 18, )"
            R"("heap_pops": 19, "binding_probes": 20, "case1_bindings": 21, )"
            R"("case2_bindings": 22}, )"
            R"("completion_time": 123.456789})");
}

TEST(SynthesisEngine, StageSpansCoverTheFlow) {
  const auto bench = make_cpa();
  SynthesisJob job;
  job.name = bench.name;
  job.graph = bench.graph;
  job.allocation = Allocation(bench.allocation);
  job.wash = bench.wash;
  SynthesisEngine engine;
  const JobOutcome outcome = engine.run_job(job);
  const StageTimes& st = outcome.result.stage_seconds;
  EXPECT_GT(st.schedule, 0.0);
  EXPECT_GT(st.place, 0.0);
  EXPECT_GT(st.route, 0.0);
  EXPECT_GT(st.total(), 0.0);
  EXPECT_LE(st.total(), outcome.result.cpu_seconds + 1e-6);
  // The routing totals hold the winning candidate's fixpoint only; the
  // flow totals count every candidate's rerouted transports.
  const Telemetry::Snapshot snap = engine.telemetry().snapshot();
  EXPECT_LT(snap.routing.tasks_routed, snap.flow.transports_rerouted);
}


TEST(SynthesisEngine, PreCancelledJobThrowsAndIsCountedCancelled) {
  const auto bench = make_pcr();
  SynthesisJob job;
  job.name = bench.name;
  job.graph = bench.graph;
  job.allocation = Allocation(bench.allocation);
  job.wash = bench.wash;
  job.cancel = std::make_shared<CancellationToken>();
  job.cancel->cancel();

  SynthesisEngine engine;
  try {
    engine.run_job(job);
    FAIL() << "expected SynthesisCancelled";
  } catch (const SynthesisCancelled& e) {
    EXPECT_EQ(e.reason(), SynthesisCancelled::Reason::kCancelled);
    EXPECT_EQ(e.stage(), "queued");
  }
  const Telemetry::Snapshot snap = engine.telemetry().snapshot();
  // Cancelled is an orderly finish, not a crash: the in-flight gauge is
  // back to zero and the cancellation is counted separately.
  EXPECT_EQ(snap.jobs_cancelled, 1u);
  EXPECT_EQ(snap.jobs_in_flight, 0u);
  EXPECT_EQ(snap.jobs_submitted, 1u);
}

TEST(SynthesisEngine, ExpiredDeadlineReportsDeadlineReason) {
  const auto bench = make_pcr();
  SynthesisJob job;
  job.name = bench.name;
  job.graph = bench.graph;
  job.allocation = Allocation(bench.allocation);
  job.wash = bench.wash;
  job.cancel = std::make_shared<CancellationToken>();
  job.cancel->set_timeout(std::chrono::nanoseconds(0));

  SynthesisEngine engine;
  try {
    engine.run_job(job);
    FAIL() << "expected SynthesisCancelled";
  } catch (const SynthesisCancelled& e) {
    // Deadline wins over explicit cancel so callers can answer 504.
    EXPECT_EQ(e.reason(), SynthesisCancelled::Reason::kDeadline);
  }
}

TEST(CancellationToken, TimeoutPastTheClockRangeMeansNoDeadline) {
  // now + timeout would overflow the clock's signed tick count.
  CancellationToken token;
  token.set_timeout(std::chrono::nanoseconds::max());
  EXPECT_FALSE(token.deadline_expired());
  token.set_timeout(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.deadline_expired());
}

TEST(SynthesisEngine, CancelledJobIsNeverCached) {
  const auto bench = make_pcr();
  SynthesisJob job;
  job.name = bench.name;
  job.graph = bench.graph;
  job.allocation = Allocation(bench.allocation);
  job.wash = bench.wash;
  job.cancel = std::make_shared<CancellationToken>();
  job.cancel->cancel();

  SynthesisEngine engine;
  EXPECT_THROW(engine.run_job(job), SynthesisCancelled);
  EXPECT_EQ(engine.cache().size(), 0u);

  // The same job with the token cleared runs fine and gets cached.
  job.cancel = nullptr;
  const JobOutcome outcome = engine.run_job(job);
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(engine.cache().size(), 1u);
}

TEST(SynthesisEngine, TokenIsExecutionPolicyNotIdentity) {
  // An armed-but-unfired token must not change the fingerprint: the
  // second run (no token) hits the cache entry the first one wrote.
  const auto bench = make_pcr();
  SynthesisJob with_token;
  with_token.name = bench.name;
  with_token.graph = bench.graph;
  with_token.allocation = Allocation(bench.allocation);
  with_token.wash = bench.wash;
  with_token.cancel = std::make_shared<CancellationToken>();
  with_token.cancel->set_timeout(std::chrono::minutes(10));

  SynthesisJob without_token = with_token;
  without_token.cancel = nullptr;

  SynthesisEngine engine;
  const JobOutcome first = engine.run_job(with_token);
  const JobOutcome second = engine.run_job(without_token);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.fingerprint.to_hex(), second.fingerprint.to_hex());
}

TEST(SynthesisEngine, MidRoundCancelAbortsAtNextTransportAndIsNotCached) {
  // Cancellation granularity is per transport, not per routing round:
  // the engine composes the token check with the job's own checkpoint,
  // and the router fires that checkpoint before every transport it
  // routes. Cancel the token from inside the 5th "route" checkpoint —
  // mid round 0 of Synthetic2's 27-transport fixpoint — and the flow
  // must stop at the 6th, not finish the round (round-level checkpoints
  // would fire at most once per round and never reach a 5-call count
  // inside one round).
  const Benchmark bench = make_synthetic(2);
  SynthesisJob job;
  job.name = bench.name;
  job.graph = bench.graph;
  job.allocation = Allocation(bench.allocation);
  job.wash = bench.wash;
  job.cancel = std::make_shared<CancellationToken>();

  auto route_calls = std::make_shared<std::atomic<int>>(0);
  job.options.checkpoint = [route_calls,
                            cancel = job.cancel](const char* stage) {
    if (std::string(stage) == "route" &&
        route_calls->fetch_add(1) + 1 == 5) {
      cancel->cancel();
    }
  };

  SynthesisEngine engine;
  try {
    engine.run_job(job);
    FAIL() << "expected SynthesisCancelled";
  } catch (const SynthesisCancelled& e) {
    EXPECT_EQ(e.reason(), SynthesisCancelled::Reason::kCancelled);
    EXPECT_EQ(e.stage(), "route");
  }
  // The engine checks the token before invoking the inner checkpoint, so
  // the abort lands on the very next transport: exactly 5 inner calls,
  // far short of the 27 transports of round 0.
  EXPECT_EQ(route_calls->load(), 5);
  // An aborted flow must never warm the cache.
  EXPECT_EQ(engine.cache().size(), 0u);
}

}  // namespace
}  // namespace fbmb
