#include "runtime/synthesis_engine.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <sstream>
#include <utility>

#include "report/json.hpp"
#include "trace/trace.hpp"
#include "util/fields.hpp"

namespace fbmb {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The trace id a job's events carry: the caller's (e.g. a service
/// request id), or a fresh one when tracing is on.
std::uint64_t job_trace_id(const SynthesisJob& job) {
  if (job.options.trace_id != 0 || !trace::enabled()) {
    return job.options.trace_id;
  }
  return trace::TraceRecorder::instance().next_trace_id();
}

/// Restart/route tasks run on shared pool workers whose thread-local
/// trace id belongs to whatever job they last served; re-establish this
/// job's id around each task so its events stay attributable.
void wrap_tasks_with_trace_id(std::vector<std::function<void()>>& tasks,
                              std::uint64_t trace_id) {
  if (trace_id == 0) return;
  for (std::function<void()>& task : tasks) {
    task = [trace_id, inner = std::move(task)] {
      trace::TraceIdScope scope(trace_id);
      inner();
    };
  }
}

}  // namespace

SynthesisEngine::SynthesisEngine(SynthesisEngineOptions options)
    : options_(options),
      pool_(options.threads, options.queue_capacity),
      cache_(options.cache_capacity) {}

std::vector<JobOutcome> SynthesisEngine::run_batch(
    const std::vector<SynthesisJob>& jobs) {
  std::vector<std::future<JobOutcome>> futures;
  futures.reserve(jobs.size());
  for (const SynthesisJob& job : jobs) {
    futures.push_back(pool_.submit([this, &job] { return run_job(job); }));
  }
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs.size());
  std::exception_ptr first_error;
  for (std::future<JobOutcome>& future : futures) {
    try {
      outcomes.push_back(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      outcomes.emplace_back();  // placeholder keeps job order aligned
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

JobOutcome SynthesisEngine::run_job(const SynthesisJob& job) {
  // Every event the job emits — on this thread or on pool workers running
  // its restart/route tasks — carries one trace id.
  const std::uint64_t trace_id = job_trace_id(job);
  trace::TraceIdScope trace_scope(trace_id);
  TRACE_SPAN("engine", "job");
  const auto t0 = Clock::now();
  JobOutcome outcome = probe(job, trace_id, /*count_miss=*/true);
  if (outcome.cache_hit) return outcome;

  telemetry_.job_started();
  SynthesisOptions options = job.options;
  options.trace_id = trace_id;
  if (job.cancel) {
    // Thread the token through the flow's checkpoints (stage boundaries
    // and, inside routing rounds, every transport): a fired token aborts
    // the flow with SynthesisCancelled at the next checkpoint. Compose
    // with — rather than replace — any checkpoint the job already
    // carries, so callers can observe checkpoint traffic (tests, custom
    // instrumentation) without losing cancellation.
    std::shared_ptr<CancellationToken> token = job.cancel;
    std::function<void(const char*)> inner = std::move(options.checkpoint);
    options.checkpoint = [token, inner](const char* stage) {
      token->throw_if_cancelled(stage);
      if (inner) inner(stage);
    };
  }
  if (options_.parallel_restarts) {
    // Restart tasks fork deterministic sub-seeds and fill indexed slots,
    // so fanning them out over the shared pool is bit-identical to the
    // serial loop. parallel_invoke makes the job thread participate, so a
    // saturated pool degrades to inline execution instead of deadlocking.
    options.placer.restart_executor =
        [this, trace_id](std::vector<std::function<void()>>& tasks) {
          wrap_tasks_with_trace_id(tasks, trace_id);
          parallel_invoke(pool_, tasks);
        };
  }

  try {
    // A job whose deadline already passed while queued never starts a
    // stage at all.
    if (job.cancel) job.cancel->throw_if_cancelled("queued");
    switch (job.flow) {
      case FlowPreset::kDcsa:
        outcome.result =
            synthesize_dcsa(job.graph, job.allocation, job.wash, options);
        break;
      case FlowPreset::kBaseline:
        outcome.result = synthesize_baseline(job.graph, job.allocation,
                                             job.wash, options);
        break;
      case FlowPreset::kCustom:
        outcome.result =
            synthesize_custom(job.graph, job.allocation, job.wash, options);
        break;
    }
  } catch (const SynthesisCancelled&) {
    // Cancelled is an outcome, not a failure: count it separately so a
    // draining server's jobs do not read as errors.
    telemetry_.job_cancelled();
    telemetry_.job_finished();
    throw;
  } catch (...) {
    telemetry_.job_finished();
    throw;
  }

  {
    TRACE_SPAN("engine", "cache_insert");
    outcome.entry = cache_.insert(outcome.fingerprint, outcome.result);
  }
  outcome.wall_seconds = seconds_since(t0);
  telemetry_.record_result(outcome.result, outcome.wall_seconds);
  telemetry_.job_finished();
  return outcome;
}

std::optional<JobOutcome> SynthesisEngine::find_cached(
    const SynthesisJob& job) {
  const std::uint64_t trace_id = job_trace_id(job);
  trace::TraceIdScope trace_scope(trace_id);
  trace::SpanGuard job_span("engine", "job");
  JobOutcome outcome = probe(job, trace_id, /*count_miss=*/false);
  if (!outcome.cache_hit) {
    // Not a job yet: its span opens when run_job runs it.
    job_span.dismiss();
    return std::nullopt;
  }
  return outcome;
}

JobOutcome SynthesisEngine::probe(const SynthesisJob& job,
                                  std::uint64_t trace_id, bool count_miss) {
  const auto t0 = Clock::now();
  JobOutcome outcome;
  outcome.name = job.name;
  outcome.trace_id = trace_id;
  {
    TRACE_SPAN("engine", "fingerprint");
    outcome.fingerprint = fingerprint_inputs(job.graph, job.allocation,
                                             job.wash, job.options, job.flow);
  }
  {
    TRACE_SPAN("engine", "cache_find");
    outcome.entry = cache_.find(outcome.fingerprint, count_miss);
  }
  if (outcome.entry) {
    TRACE_INSTANT("engine", "cache_hit");
    outcome.cache_hit = true;
    outcome.wall_seconds = seconds_since(t0);
    telemetry_.job_hit();
  }
  return outcome;
}

std::string SynthesisEngine::totals_json() const {
  return Telemetry::to_json(telemetry_.snapshot(), cache_.hits(),
                            cache_.misses(), pool_.max_queue_depth());
}

std::string SynthesisEngine::telemetry_json(
    const std::vector<JobOutcome>& outcomes) const {
  std::ostringstream os;
  os << "{\n  \"engine\": {\"threads\": " << pool_.thread_count()
     << ", \"cache_capacity\": " << cache_.capacity()
     << ", \"cache_size\": " << cache_.size()
     << ", \"parallel_restarts\": "
     << (options_.parallel_restarts ? "true" : "false")
     << "},\n  \"totals\": " << totals_json() << ",\n  \"jobs\": [";
  bool first = true;
  for (const JobOutcome& outcome : outcomes) {
    // A hit's result is its entry's; a hand-built outcome may have none.
    const SynthesisResult& r =
        outcome.entry ? outcome.entry->result : outcome.result;
    os << (first ? "" : ",") << "\n    {\"name\": "
       << json_quote(outcome.name) << ", \"fingerprint\": \""
       << outcome.fingerprint.to_hex() << "\", \"cache_hit\": "
       << (outcome.cache_hit ? "true" : "false")
       << ", \"wall_seconds\": " << json_number(outcome.wall_seconds)
       << ", \"stages\": {" << json_fields(r.stage_seconds, json_number)
       << "}, ";
    Telemetry::write_counters(os, r.routing.stats, r.flow_stats, r.place_stats,
                              r.sched_stats);
    os << ", \"completion_time\": " << json_number(r.completion_time) << "}";
    first = false;
  }
  os << "\n  ]\n}";
  return os.str();
}

}  // namespace fbmb
