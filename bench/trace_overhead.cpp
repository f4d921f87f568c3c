// Tracing-overhead benchmark: what a TRACE_SPAN site costs, disabled and
// enabled, on every paper benchmark's route–retime fixpoint.
//
// Two measurements, combined into BENCH_trace.json for the CI gate
// (scripts/check_bench.py --trace):
//
//  1. Micro: ns per *disabled* trace site (a relaxed atomic load plus a
//     never-taken branch) and ns per *enabled* event (clock read + ring
//     push), each isolated in a tight loop against an identical loop
//     without the site.
//  2. Macro: every paper benchmark × {dcsa, baseline} route–retime
//     fixpoint timed end to end with tracing disabled and enabled,
//     interleaved best-of-kReps (DCSA on a one-restart SA placement, BA
//     on its constructive placement). The gate bounds
//       - the *projected* disabled overhead per config
//         (ns_per_site_disabled × events the config emits / runtime),
//         which stays meaningful even when the real overhead is far below
//         timer noise, and
//       - the measured enabled/disabled ratio (geomean).
//     Results are verified bit-identical with tracing on and off —
//     instrumentation must observe, never perturb.
//
//   build/bench/trace_overhead [--json-out FILE] [--reps N]

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
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "schedule/list_scheduler.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

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

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The volatile sink keeps the loop body from folding away without adding
/// a memory fence that would dwarf what we measure.
volatile std::uint64_t g_sink = 0;

/// ns per loop iteration of `body`, best of 5 runs of `iters` iterations.
template <typename Body>
double time_loop_ns(std::size_t iters, Body body) {
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    const double ns = seconds_since(t0) * 1e9 / static_cast<double>(iters);
    if (run == 0 || ns < best) best = ns;
  }
  return best;
}

struct FixpointRun {
  Schedule schedule;
  RoutingResult routing;
  double seconds = 0.0;
};

void time_rep(const Scenario& s, const Benchmark& bench, int rep,
              FixpointRun& best) {
  Schedule schedule = s.schedule;
  StageTimes stages;
  const auto t0 = Clock::now();
  RoutingResult routing =
      route_until_consistent(schedule, bench.graph, s.alloc, s.chip,
                             s.placement, bench.wash, s.router, stages, {});
  const double seconds = seconds_since(t0);
  if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
  if (rep == 0) {
    best.schedule = std::move(schedule);
    best.routing = std::move(routing);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  int reps = 9;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    }
  }

  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();

  // --- Micro: cost of one site ---------------------------------------
  constexpr std::size_t kMicroIters = 20'000'000;
  recorder.set_enabled(false);
  const double ns_base =
      time_loop_ns(kMicroIters, [](std::size_t i) { g_sink = g_sink + i; });
  const double ns_site = time_loop_ns(kMicroIters, [](std::size_t i) {
    TRACE_SPAN("bench", "micro");
    g_sink = g_sink + i;
  });
  const double ns_per_site_disabled = std::max(0.0, ns_site - ns_base);

  recorder.set_enabled(true);
  const double ns_event = time_loop_ns(kMicroIters / 20, [](std::size_t i) {
    TRACE_SPAN("bench", "micro");
    g_sink = g_sink + i;
  });
  const double ns_per_event_enabled = std::max(0.0, ns_event - ns_base);
  recorder.set_enabled(false);
  recorder.clear();

  // --- Macro: route–retime fixpoints, tracing off vs on --------------
  TextTable table({"Scenario", "Off (ms)", "On (ms)", "Events",
                   "Enabled ovh", "Proj. disabled ovh"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  std::ostringstream json;
  json << "{\"reps\": " << reps
       << ", \"micro\": {\"iters\": " << kMicroIters
       << ", \"ns_per_site_disabled\": " << json_number(ns_per_site_disabled)
       << ", \"ns_per_event_enabled\": " << json_number(ns_per_event_enabled)
       << "}, \"benchmarks\": [";

  bool first = true;
  bool all_identical = true;
  double log_ratio_sum = 0.0;
  int ratio_count = 0;
  double max_projected = 0.0;

  for (const auto& bench : paper_benchmarks()) {
    for (const Scenario& s :
         {prepare_dcsa(bench), prepare_baseline(bench)}) {
      FixpointRun off;
      FixpointRun on;
      std::uint64_t events = 0;
      for (int rep = 0; rep < reps; ++rep) {
        recorder.set_enabled(false);
        time_rep(s, bench, rep, off);
        recorder.set_enabled(true);
        const std::uint64_t before = recorder.total_events();
        time_rep(s, bench, rep, on);
        events = recorder.total_events() - before;
        recorder.set_enabled(false);
      }
      recorder.clear();

      const bool identical = off.schedule == on.schedule &&
                             identical_routing(off.routing, on.routing);
      if (!identical) {
        all_identical = false;
        std::cerr << "MISMATCH: " << s.name
                  << ": results differ with tracing enabled\n";
      }

      const double ratio =
          off.seconds > 0.0 ? on.seconds / off.seconds : 1.0;
      if (ratio > 0.0) {
        log_ratio_sum += std::log(ratio);
        ++ratio_count;
      }
      const double projected =
          off.seconds > 0.0
              ? ns_per_site_disabled * static_cast<double>(events) /
                    (off.seconds * 1e9)
              : 0.0;
      if (projected > max_projected) max_projected = projected;

      table.add_row({s.name, format_double(off.seconds * 1e3, 3),
                     format_double(on.seconds * 1e3, 3),
                     std::to_string(events),
                     format_double((ratio - 1.0) * 100.0, 2) + "%",
                     format_double(projected * 100.0, 4) + "%"});
      json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
           << "\", \"disabled_seconds\": " << json_number(off.seconds)
           << ", \"enabled_seconds\": " << json_number(on.seconds)
           << ", \"events\": " << events
           << ", \"enabled_overhead\": " << json_number(ratio - 1.0)
           << ", \"projected_disabled_overhead\": " << json_number(projected)
           << ", \"identical\": " << (identical ? "true" : "false") << "}";
      first = false;
    }
  }

  const double geomean_ratio =
      ratio_count ? std::exp(log_ratio_sum / ratio_count) : 1.0;
  json << "\n], \"geomean_enabled_overhead\": "
       << json_number(geomean_ratio - 1.0)
       << ", \"max_projected_disabled_overhead\": "
       << json_number(max_projected)
       << ", \"identical\": " << (all_identical ? "true" : "false") << "}";

  std::cout << "TRACING OVERHEAD (best of " << reps
            << " interleaved fixpoint runs per mode)\n\n"
            << "Disabled site:  " << format_double(ns_per_site_disabled, 3)
            << " ns (load + branch)\nEnabled event:  "
            << format_double(ns_per_event_enabled, 3)
            << " ns (clock + ring push)\n\n"
            << table << "\nGeomean enabled overhead:          "
            << format_double((geomean_ratio - 1.0) * 100.0, 2)
            << "%\nMax projected disabled overhead:   "
            << format_double(max_projected * 100.0, 4) << "%\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_identical ? 0 : 1;
}
