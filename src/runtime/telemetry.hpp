// Per-stage telemetry for the concurrent synthesis runtime.
//
// Telemetry aggregates, across every job an engine executes: wall time per
// synthesis stage (schedule / refine / place / grid_build / route /
// retime), the four per-result counter structs (RouteStats, FlowStats,
// PlaceStats, SchedStats) and jobs submitted / completed / cancelled / in
// flight. The totals are one plain Snapshot behind a mutex: job workers
// record a few times per job, so the lock is uncontended in practice, and
// snapshot() copies a view that is consistent across counters. Stages and
// counters are summed and written by looping over each struct's field
// table (util/fields.hpp), so a new counter is one member plus one table
// row.
//
// RouteStats is summed from each result, so it counts only the winning
// placement candidate's route–retime fixpoint; flow.transports_rerouted
// counts the routing work of every candidate.
//
// Cache hits and misses (ResultCache) and the queue high-water
// (ThreadPool) are kept by their owners; to_json takes them as arguments.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "core/synthesis.hpp"
#include "route/types.hpp"

namespace fbmb {

class Telemetry {
 public:
  /// Immutable view of all counters at one instant.
  struct Snapshot {
    StageTimes stage_seconds;       ///< summed over all completed jobs
    std::uint64_t jobs_submitted = 0;  ///< jobs that reached the engine
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_cancelled = 0;  ///< finished via SynthesisCancelled
    std::uint64_t jobs_in_flight = 0;  ///< misses synthesizing now
    double synthesis_seconds = 0.0;  ///< summed job wall time (cache misses)
    /// Summed router counters (cache misses): each job's winning
    /// candidate only, over every round of its fixpoint.
    RouteStats routing;
    /// Summed route–retime fixpoint reuse counters (cache misses), over
    /// every placement candidate's fixpoint.
    FlowStats flow;
    PlaceStats placement;            ///< summed placer counters (cache misses)
    SchedStats scheduling;           ///< summed scheduler counters (cache misses)
  };

  /// A job that missed the cache and starts to synthesize.
  void job_started() {
    update([](Snapshot& s) {
      ++s.jobs_submitted;
      ++s.jobs_in_flight;
    });
  }
  /// A job answered from the cache: it finishes as it starts, and is
  /// never in flight.
  void job_hit() {
    update([](Snapshot& s) {
      ++s.jobs_submitted;
      ++s.jobs_completed;
    });
  }
  /// A job that stopped with SynthesisCancelled (deadline / drain /
  /// client disconnect) — counted in addition to job_finished().
  void job_cancelled() { update([](Snapshot& s) { ++s.jobs_cancelled; }); }
  void job_finished() {
    update([](Snapshot& s) {
      --s.jobs_in_flight;
      ++s.jobs_completed;
    });
  }

  /// Folds one completed (cache-missing) job into the totals: its stage
  /// seconds, its four counter structs and its wall time.
  void record_result(const SynthesisResult& result, double wall_seconds);

  Snapshot snapshot() const;

  /// The snapshot as a JSON object (schema documented in docs/RUNTIME.md),
  /// with the cache's hit and miss counts and the pool's queue high-water
  /// in their places.
  static std::string to_json(const Snapshot& snapshot,
                             std::uint64_t cache_hits,
                             std::uint64_t cache_misses,
                             std::uint64_t max_queue_depth);

  /// Writes `"routing": {...}, "flow": {...}, "placement": {...},
  /// "scheduling": {...}`, the four counter objects that to_json's totals
  /// and SynthesisEngine::telemetry_json's per-job entries share.
  static void write_counters(std::ostream& os, const RouteStats& routing,
                             const FlowStats& flow, const PlaceStats& placement,
                             const SchedStats& scheduling);

 private:
  template <class Change>
  void update(Change change) {
    std::lock_guard<std::mutex> lock(mutex_);
    change(totals_);
  }

  mutable std::mutex mutex_;
  Snapshot totals_;
};

}  // namespace fbmb
