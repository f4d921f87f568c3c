// Concurrent synthesis engine: fans synthesis jobs out over a thread pool,
// parallelizes the SA placer's restarts inside each job, memoizes results
// in a content-addressed cache, and records per-stage telemetry.
//
// Determinism contract: for a fixed seed, a batch run on any thread count
// produces metrics bit-identical to calling the serial flows one by one.
// Three properties make that hold:
//   1. jobs are independent (each owns copies of its inputs),
//   2. SA restarts fork deterministic sub-seeds (fork_seed(seed, i)) and
//      write indexed slots, so concurrent restart execution cannot reorder
//      the candidate list, and
//   3. cached results are stored losslessly, so a hit returns exactly what
//      the original computation produced.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace fbmb {

/// One unit of work: a named bioassay plus everything its flow needs. Jobs
/// own their inputs so a batch can outlive (or run concurrently with) the
/// scopes that built them.
struct SynthesisJob {
  std::string name;
  SequencingGraph graph;
  Allocation allocation;
  WashModel wash;
  SynthesisOptions options;
  FlowPreset flow = FlowPreset::kDcsa;
  /// Optional cooperative cancellation: when set, the engine checks the
  /// token between synthesis stages and the job fails with
  /// SynthesisCancelled once it fires (deadline or explicit cancel).
  /// Null = never cancelled. Execution policy — not fingerprinted.
  std::shared_ptr<CancellationToken> cancel;
};

/// A finished job, in submission order.
struct JobOutcome {
  std::string name;
  /// A miss's result. A hit leaves it empty: its result is
  /// `entry->result`, shared with the cache.
  SynthesisResult result;
  Fingerprint fingerprint;
  bool cache_hit = false;
  double wall_seconds = 0.0;  ///< job wall time inside the engine
  /// Trace id the job's events were stamped with (0 when tracing was off
  /// and the job carried none). See src/trace.
  std::uint64_t trace_id = 0;
  /// The cache entry holding the result: the one a hit found, or the one
  /// a miss stored. A served response appends its stored JSON.
  std::shared_ptr<const CachedResult> entry;
};

struct SynthesisEngineOptions {
  std::size_t threads = 0;         ///< 0 = ThreadPool::default_thread_count
  std::size_t queue_capacity = 1024;
  std::size_t cache_capacity = 128;
  /// Run each job's SA restarts as parallel tasks on the shared pool.
  /// Off, restarts run serially inside the job (results are identical
  /// either way).
  bool parallel_restarts = true;
};

class SynthesisEngine {
 public:
  explicit SynthesisEngine(SynthesisEngineOptions options = {});

  /// Runs every job across the pool; returns outcomes in job order. The
  /// first job exception (SchedulingError, RoutingError, ...) is rethrown
  /// after all jobs settled.
  std::vector<JobOutcome> run_batch(const std::vector<SynthesisJob>& jobs);

  /// Runs one job on the calling thread (still cached; restarts still use
  /// the pool when parallel_restarts is on).
  JobOutcome run_job(const SynthesisJob& job);

  /// The engine's hit path, on the calling thread: fingerprints `job` and
  /// looks it up in the cache. A hit is a finished job: it counts as one
  /// cache hit and one completed job, and is traced as an engine/job span
  /// holding engine/fingerprint, engine/cache_find and a cache_hit
  /// instant. Its outcome holds the shared entry and leaves `result`
  /// empty. A miss returns nullopt and counts neither a job nor a cache
  /// miss: run_job looks again, and counts the job, when it runs it. The
  /// job's token is not checked, so a hit never fails.
  std::optional<JobOutcome> find_cached(const SynthesisJob& job);

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }
  const ThreadPool& pool() const { return pool_; }
  /// Mutable pool access for callers layering their own admission control
  /// on top (ThreadPool::try_submit + run_job; see src/service).
  ThreadPool& pool() { return pool_; }

  /// The aggregate totals (/metrics' "engine" object): the telemetry
  /// snapshot plus the cache's hits and misses and the pool's queue
  /// high-water, each read from its owner.
  std::string totals_json() const;

  /// Full batch report: engine configuration, totals_json(), and a per-job
  /// array with stage walls and cache flags.
  std::string telemetry_json(const std::vector<JobOutcome>& outcomes) const;

 private:
  /// find_cached's work inside the caller's trace-id scope and engine/job
  /// span. A miss comes back unfinished, with its fingerprint set; it
  /// counts as a cache miss only when `count_miss` is set.
  JobOutcome probe(const SynthesisJob& job, std::uint64_t trace_id,
                   bool count_miss);

  SynthesisEngineOptions options_;
  ThreadPool pool_;
  ResultCache cache_;
  Telemetry telemetry_;
};

}  // namespace fbmb
