// Route–retime fixpoint benchmark: incremental core vs from-scratch loop.
//
// For every paper benchmark and both flow presets (DCSA and the BA
// baseline) this bench times route_until_consistent (persistent grid +
// footprint-verified path reuse) against route_until_consistent_reference
// (fresh grid + full re-route every round), end to end — grid
// construction, every routing round, and the retimings in between. The
// two fixpoints are verified to produce bit-identical (schedule, routing)
// pairs, and the JSON records each fixpoint's reuse counters so
// regressions in the reuse rate are visible, not just wall time.
//
//   build/bench/flow_perf [--json-out FILE]

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/flow_core.hpp"
#include "oracle/reference_flow.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/fields.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 15;

struct Scenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  Placement placement;
  RouterOptions router;
};

Scenario prepare_dcsa(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name + "/dcsa";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  PlacerOptions placer;
  placer.restarts = 1;
  s.placement =
      place_components(s.alloc, s.schedule, bench.wash, s.chip, placer);
  return s;
}

Scenario prepare_baseline(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name + "/baseline";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  s.placement = place_components_baseline(s.alloc, s.schedule, s.chip,
                                          ConstructivePlacerOptions{});
  s.router.wash_aware_weights = false;
  return s;
}

struct FixpointRun {
  Schedule schedule;
  RoutingResult routing;
  FlowStats flow;
  double seconds = 0.0;  ///< best-of-kReps end-to-end fixpoint time
};

/// One timed end-to-end fixpoint execution. Reps of the incremental and
/// reference fixpoints are interleaved by the caller so load drift on
/// the host biases neither side; best-of filters the remaining noise.
template <typename FixpointFn>
void time_rep(const Scenario& s, const Benchmark& bench, FixpointFn fixpoint,
              int rep, FixpointRun& best) {
  Schedule schedule = s.schedule;
  StageTimes stages;
  FlowStats flow;
  const auto t0 = Clock::now();
  RoutingResult routing =
      fixpoint(schedule, bench.graph, s.alloc, s.chip, s.placement,
               bench.wash, s.router, stages, &flow);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
  if (rep == 0) {
    best.schedule = std::move(schedule);
    best.routing = std::move(routing);
    best.flow = std::move(flow);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  TextTable table({"Scenario", "Tasks", "Rounds", "Ref (ms)", "Incr (ms)",
                   "Speedup", "Reused", "Rerouted"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;
  double log_speedup_sum = 0.0;
  int speedup_count = 0;
  // A flow that converges in one round has no route–retime repetition to
  // eliminate — the incremental core's theoretical best there is parity.
  // Track the multi-round flows separately so the number that measures
  // the reuse machinery is not diluted by noise on microsecond-scale
  // single-round rows.
  double log_speedup_sum_multi = 0.0;
  int speedup_count_multi = 0;

  for (const auto& bench : paper_benchmarks()) {
    for (const Scenario& s :
         {prepare_dcsa(bench), prepare_baseline(bench)}) {
      FixpointRun incremental;
      FixpointRun reference;
      for (int rep = 0; rep < kReps; ++rep) {
        time_rep(s, bench,
                 [](Schedule& schedule, const SequencingGraph& graph,
                    const Allocation& alloc, const ChipSpec& chip,
                    const Placement& placement, const WashModel& wash,
                    const RouterOptions& router, StageTimes& stages,
                    FlowStats* flow) {
                   return route_until_consistent(schedule, graph, alloc,
                                                 chip, placement, wash,
                                                 router, stages, {}, flow);
                 },
                 rep, incremental);
        time_rep(s, bench,
                 [](Schedule& schedule, const SequencingGraph& graph,
                    const Allocation& alloc, const ChipSpec& chip,
                    const Placement& placement, const WashModel& wash,
                    const RouterOptions& router, StageTimes& stages,
                    FlowStats* flow) {
                   return route_until_consistent_reference(
                       schedule, graph, alloc, chip, placement, wash,
                       router, stages, {}, flow);
                 },
                 rep, reference);
      }

      const bool identical =
          incremental.schedule == reference.schedule &&
          identical_routing(incremental.routing, reference.routing);
      if (!identical) {
        all_equal = false;
        std::cerr << "MISMATCH: " << s.name
                  << ": incremental fixpoint differs from reference\n";
      }

      const double speedup = incremental.seconds > 0.0
                                 ? reference.seconds / incremental.seconds
                                 : 0.0;
      if (speedup > 0.0) {
        log_speedup_sum += std::log(speedup);
        ++speedup_count;
        if (incremental.flow.rounds > 1) {
          log_speedup_sum_multi += std::log(speedup);
          ++speedup_count_multi;
        }
      }
      const FlowStats& flow = incremental.flow;
      table.add_row(
          {s.name, std::to_string(s.schedule.transports.size()),
           std::to_string(flow.rounds),
           format_double(reference.seconds * 1e3, 3),
           format_double(incremental.seconds * 1e3, 3),
           format_double(speedup, 2), std::to_string(flow.transports_reused),
           std::to_string(flow.transports_rerouted)});

      json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
           << "\", \"transports\": " << s.schedule.transports.size()
           << ", \"reference_seconds\": " << json_number(reference.seconds)
           << ", \"flat_seconds\": " << json_number(incremental.seconds)
           << ", \"speedup\": " << json_number(speedup)
           << ", \"identical\": " << (identical ? "true" : "false")
           << ", \"flow\": {" << json_fields(flow) << "}}";
      first = false;
    }
  }
  const double geomean =
      speedup_count ? std::exp(log_speedup_sum / speedup_count) : 0.0;
  const double geomean_multi =
      speedup_count_multi
          ? std::exp(log_speedup_sum_multi / speedup_count_multi)
          : 0.0;
  json << "\n], \"geomean_speedup\": " << json_number(geomean)
       << ", \"geomean_speedup_multi_round\": " << json_number(geomean_multi)
       << ", \"multi_round_configs\": " << speedup_count_multi << "}";

  std::cout << "ROUTE-RETIME FIXPOINT: incremental core vs from-scratch "
               "reference\n(best of "
            << kReps
            << " interleaved runs per fixpoint; end-to-end including grid "
               "build and retiming; results verified identical)\n\n"
            << table << "\nGeomean speedup (all configs):         "
            << format_double(geomean, 3)
            << "\nGeomean speedup (multi-round flows):  "
            << format_double(geomean_multi, 3) << " over "
            << speedup_count_multi << " configs\n";
  std::cout << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
