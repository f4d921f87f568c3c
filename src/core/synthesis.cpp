#include "core/synthesis.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/flow_core.hpp"
#include "place/sa_placer.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fbmb {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SynthesisResult finish(const Allocation& allocation, Schedule schedule,
                       Placement placement, RoutingResult routing,
                       const ChipSpec& chip, Clock::time_point t0) {
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
  result.cpu_seconds = seconds_since(t0);
  return result;
}

}  // namespace

std::string SynthesisResult::summary() const {
  std::ostringstream os;
  os << "execution time " << format_double(completion_time, 1)
     << " s, utilization " << format_double(utilization * 100.0, 1)
     << " %, channel length " << format_double(channel_length_mm, 0)
     << " mm, cache time " << format_double(total_cache_time, 1)
     << " s, channel wash time " << format_double(channel_wash_time, 1)
     << " s (cpu " << format_double(cpu_seconds, 3) << " s)";
  return os.str();
}

SynthesisResult synthesize_custom(const SequencingGraph& graph,
                                  const Allocation& allocation,
                                  const WashModel& wash_model,
                                  const SynthesisOptions& options) {
  const auto t0 = Clock::now();
  StageTimes stages;
  // Stamp every event this synthesis emits (on this thread) with the
  // caller's trace id; executors re-establish the scope on pool threads.
  trace::TraceIdScope trace_scope(options.trace_id);
  const std::function<void(const char*)>& checkpoint = options.checkpoint;
  if (checkpoint) checkpoint("schedule");

  // Schedule with refinement split out so the two stages are timed
  // separately; schedule_bioassay's refine_storage path runs the identical
  // refine_channel_storage pass as its final step, so the split result is
  // bit-identical.
  auto schedule_start = Clock::now();
  SchedulerOptions scheduler_options = options.scheduler;
  scheduler_options.refine_storage = false;
  SchedStats sched_stats;
  Schedule schedule;
  {
    TRACE_SPAN("stage", "schedule");
    schedule = schedule_bioassay(graph, allocation, wash_model,
                                 scheduler_options, &sched_stats);
  }
  stages.schedule = seconds_since(schedule_start);
  if (options.scheduler.refine_storage) {
    if (checkpoint) checkpoint("refine");
    const auto refine_start = Clock::now();
    TRACE_SPAN("stage", "refine");
    refine_channel_storage(schedule);
    stages.refine = seconds_since(refine_start);
  }
  if (checkpoint) checkpoint("place");

  const ChipSpec chip = derive_grid(
      options.chip,
      allocation_area(allocation, options.chip.component_spacing));

  // Route every placement candidate and keep the best end-to-end result —
  // completion time first (the paper's primary objective), then channel
  // length, then wash time. SA yields one candidate per restart, and
  // placement energy (Eq. 3) is only a proxy for these, so selection
  // happens on the routed metrics; BA's placer yields one.
  const auto place_start = Clock::now();
  PlaceStats place_stats;
  std::vector<Placement> candidates;
  {
    TRACE_SPAN("stage", "place");
    if (options.placement == PlacementStrategy::kConstructive) {
      candidates.push_back(place_components_baseline(
          allocation, schedule, chip, options.baseline_placer));
    } else {
      candidates = place_component_candidates(allocation, schedule,
                                              wash_model, chip,
                                              options.placer, &place_stats);
    }
  }
  stages.place = seconds_since(place_start);
  SynthesisResult best;
  bool have_best = false;
  FlowStats flow_total;
  for (Placement& placement : candidates) {
    Schedule trial_schedule = schedule;
    RoutingResult routing = route_until_consistent(
        trial_schedule, graph, allocation, chip, placement, wash_model,
        options.router, stages, checkpoint, &flow_total);
    SynthesisResult result =
        finish(allocation, std::move(trial_schedule), std::move(placement),
               std::move(routing), chip, t0);
    const auto key = [](const SynthesisResult& r) {
      return std::make_tuple(r.completion_time, r.channel_length_mm,
                             r.channel_wash_time);
    };
    if (!have_best || key(result) < key(best)) {
      best = std::move(result);
      have_best = true;
    }
  }
  best.cpu_seconds = seconds_since(t0);
  best.stage_seconds = stages;
  best.place_stats = place_stats;
  best.sched_stats = sched_stats;
  best.flow_stats = flow_total;
  return best;
}

SynthesisResult synthesize_dcsa(const SequencingGraph& graph,
                                const Allocation& allocation,
                                const WashModel& wash_model,
                                SynthesisOptions options) {
  options.scheduler.policy = BindingPolicy::kDcsa;
  options.scheduler.refine_storage = true;
  options.router.wash_aware_weights = true;
  options.router.conflict_aware = true;
  options.placement = PlacementStrategy::kSimulatedAnnealing;
  return synthesize_custom(graph, allocation, wash_model, options);
}

SynthesisResult synthesize_baseline(const SequencingGraph& graph,
                                    const Allocation& allocation,
                                    const WashModel& wash_model,
                                    SynthesisOptions options) {
  options.scheduler.policy = BindingPolicy::kBaseline;
  options.scheduler.refine_storage = false;
  // BA's construction-by-correction placement & routing are conflict-free
  // (paths are corrected sequentially) but oblivious to wash times: every
  // cell costs the same, so BA neither prefers cheap-to-wash channels nor
  // grows shared paths.
  options.router.wash_aware_weights = false;
  options.router.conflict_aware = true;
  options.placement = PlacementStrategy::kConstructive;
  return synthesize_custom(graph, allocation, wash_model, options);
}

}  // namespace fbmb
