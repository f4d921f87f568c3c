// Per-stage telemetry for the concurrent synthesis runtime.
//
// Telemetry aggregates, across every job an engine executes: wall time per
// synthesis stage (schedule / refine / place / route / retime), result-cache
// hits and misses, jobs submitted / completed / in flight, and the work
// queue's high-water depth. Counters are atomic so job workers record
// concurrently without locking; snapshot() reads a consistent-enough view
// for reporting (individual counters are exact; cross-counter skew is
// bounded by whatever is still in flight).
//
// ScopedStageTimer is the lightweight span primitive: it measures the
// lifetime of a scope and adds it to a double, e.g. a StageTimes field.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/synthesis.hpp"
#include "route/types.hpp"

namespace fbmb {

/// Adds the scope's wall time to `sink` on destruction.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(double& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedStageTimer() {
    sink_ += std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  double& sink_;
  std::chrono::steady_clock::time_point start_;
};

class Telemetry {
 public:
  /// Immutable view of all counters at one instant.
  struct Snapshot {
    StageTimes stage_seconds;       ///< summed over all completed jobs
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_cancelled = 0;  ///< finished via SynthesisCancelled
    std::uint64_t jobs_in_flight = 0;
    std::uint64_t max_queue_depth = 0;
    double synthesis_seconds = 0.0;  ///< summed job wall time (cache misses)
    RouteStats routing;              ///< summed router counters (cache misses)
    /// Summed route–retime fixpoint reuse counters (cache misses). Only
    /// the aggregate counters are tracked; per-round details stay per-job.
    FlowStats flow;
    PlaceStats placement;            ///< summed placer counters (cache misses)
    SchedStats scheduling;           ///< summed scheduler counters (cache misses)
  };

  void record_cache_hit() { cache_hits_.fetch_add(1); }
  void record_cache_miss() { cache_misses_.fetch_add(1); }

  void job_submitted() { jobs_submitted_.fetch_add(1); }
  void job_started() { jobs_in_flight_.fetch_add(1); }
  /// A job that stopped with SynthesisCancelled (deadline / drain /
  /// client disconnect) — counted in addition to job_finished().
  void job_cancelled() { jobs_cancelled_.fetch_add(1); }
  void job_finished() {
    jobs_in_flight_.fetch_sub(1);
    jobs_completed_.fetch_add(1);
  }

  /// Folds one completed job's stage breakdown into the aggregate.
  void record_stage_times(const StageTimes& stages);

  /// Folds one completed job's router counters into the aggregate.
  void record_route_stats(const RouteStats& stats);

  /// Folds one completed job's route–retime fixpoint reuse counters into
  /// the aggregate (rounds, re-routed / replayed transports, evictions).
  void record_flow_stats(const FlowStats& stats);

  /// Folds one completed job's placer counters into the aggregate.
  void record_place_stats(const PlaceStats& stats);

  /// Folds one completed job's scheduler counters into the aggregate.
  void record_sched_stats(const SchedStats& stats);

  void record_synthesis_seconds(double seconds) {
    add(synthesis_seconds_, seconds);
  }

  void record_queue_depth(std::uint64_t depth);

  Snapshot snapshot() const;

  /// Resets every counter to zero (e.g. between batch passes).
  void reset();

  /// The snapshot as a JSON object (schema documented in docs/RUNTIME.md).
  static std::string to_json(const Snapshot& snapshot);

 private:
  static void add(std::atomic<double>& sink, double value) {
    // fetch_add on atomic<double> is C++20; keep a CAS loop so the TU also
    // builds with libstdc++ configurations that lack the FP overload.
    double current = sink.load(std::memory_order_relaxed);
    while (!sink.compare_exchange_weak(current, current + value)) {
    }
  }

  std::atomic<double> stage_schedule_{0.0};
  std::atomic<double> stage_refine_{0.0};
  std::atomic<double> stage_place_{0.0};
  std::atomic<double> stage_grid_build_{0.0};
  std::atomic<double> stage_route_{0.0};
  std::atomic<double> stage_retime_{0.0};
  std::atomic<double> synthesis_seconds_{0.0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> jobs_in_flight_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> route_tasks_routed_{0};
  std::atomic<std::uint64_t> route_nodes_expanded_{0};
  std::atomic<std::uint64_t> route_heap_pushes_{0};
  std::atomic<std::uint64_t> route_feasibility_rejections_{0};
  std::atomic<std::uint64_t> route_postponement_steps_{0};
  std::atomic<std::uint64_t> route_distance_fields_built_{0};
  std::atomic<std::uint64_t> route_fixpoints_capped_{0};
  std::atomic<std::uint64_t> flow_rounds_{0};
  std::atomic<std::uint64_t> flow_transports_rerouted_{0};
  std::atomic<std::uint64_t> flow_transports_reused_{0};
  std::atomic<std::uint64_t> flow_cells_evicted_{0};
  std::atomic<std::uint64_t> place_proposals_{0};
  std::atomic<std::uint64_t> place_accepts_{0};
  std::atomic<std::uint64_t> place_delta_evals_{0};
  std::atomic<std::uint64_t> place_full_evals_{0};
  std::atomic<std::uint64_t> place_occupancy_probes_{0};
  std::atomic<std::uint64_t> sched_ops_scheduled_{0};
  std::atomic<std::uint64_t> sched_heap_pushes_{0};
  std::atomic<std::uint64_t> sched_heap_pops_{0};
  std::atomic<std::uint64_t> sched_binding_probes_{0};
  std::atomic<std::uint64_t> sched_case1_bindings_{0};
  std::atomic<std::uint64_t> sched_case2_bindings_{0};
};

}  // namespace fbmb
