// Router-core micro-benchmark: flat-array A* vs the map-based reference.
//
// For every paper benchmark this bench builds one (schedule, placement)
// scenario with the paper's DCSA flow, then times route_transports (the
// flat-array core) against route_transports_reference (the original
// unordered_map implementation) on fresh grids, verifying along the way
// that the two produce identical RoutingResults. Reports a table and a
// JSON object with the per-benchmark timings and the flat core's search
// counters (nodes expanded, heap pushes, feasibility rejections).
//
//   build/bench/route_perf [--json-out FILE]

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "oracle/reference_router.hpp"
#include "place/sa_placer.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "route/router.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/fields.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

struct Scenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  Placement placement;
};

Scenario prepare(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name;
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

template <typename RouteFn>
double time_route(const Scenario& s, const WashModel& wash,
                  const RouterOptions& opts, RouteFn route,
                  RoutingResult& last) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    RoutingGrid grid(s.chip, s.alloc, s.placement);
    const auto t0 = Clock::now();
    RoutingResult result = route(grid, s.schedule, wash, opts);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < best) best = seconds;
    last = std::move(result);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  TextTable table({"Benchmark", "Tasks", "Ref (ms)", "Flat (ms)", "Speedup",
                   "Nodes", "Heap pushes", "Infeasible"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;

  for (const auto& bench : paper_benchmarks()) {
    const Scenario s = prepare(bench);
    RouterOptions opts;  // the paper flow: wash-aware + conflict-aware

    RoutingResult flat;
    const double flat_s = time_route(
        s, bench.wash, opts,
        [](RoutingGrid& g, const Schedule& sch, const WashModel& w,
           const RouterOptions& o) { return route_transports(g, sch, w, o); },
        flat);
    RoutingResult ref;
    const double ref_s = time_route(
        s, bench.wash, opts,
        [](RoutingGrid& g, const Schedule& sch, const WashModel& w,
           const RouterOptions& o) {
          return route_transports_reference(g, sch, w, o);
        },
        ref);

    const bool identical = identical_routing(flat, ref);
    if (!identical) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": flat router result differs from reference\n";
    }

    const double speedup = flat_s > 0.0 ? ref_s / flat_s : 0.0;
    table.add_row({s.name, std::to_string(s.schedule.transports.size()),
                   format_double(ref_s * 1e3, 3),
                   format_double(flat_s * 1e3, 3),
                   format_double(speedup, 2),
                   std::to_string(flat.stats.nodes_expanded),
                   std::to_string(flat.stats.heap_pushes),
                   std::to_string(flat.stats.feasibility_rejections)});

    json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
         << "\", \"transports\": " << s.schedule.transports.size()
         << ", \"reference_seconds\": " << json_number(ref_s)
         << ", \"flat_seconds\": " << json_number(flat_s)
         << ", \"speedup\": " << json_number(speedup)
         << ", \"identical\": " << (identical ? "true" : "false")
         << ", \"routing\": {" << json_fields(flat.stats) << "}}";
    first = false;
  }
  json << "\n]}";

  std::cout << "ROUTER CORE: flat-array A* vs map-based reference\n"
               "(best of " << kReps << " runs per router; fresh grid each "
               "run; results verified identical)\n\n"
            << table << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
