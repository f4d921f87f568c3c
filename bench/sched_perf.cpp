// Scheduler-core micro-benchmark: flat-array SchedulerCore vs the
// map-and-linear-scan reference list scheduler.
//
// For every paper benchmark this bench times schedule_bioassay (heap ready
// set, CSR share slots, per-type candidate lists, memoized wash times)
// against schedule_bioassay_reference (std::set ready queue, std::map
// share bookkeeping, per-operation allocations), verifying along the way
// that the two produce bit-identical Schedules. A single scheduling pass
// runs in microseconds, so each measurement repeats the pass kIters times
// and reports the best of kReps such batches. Reports a table and a JSON
// object with per-benchmark timings, operation throughput, and the core's
// search counters.
//
//   build/bench/sched_perf [--json-out FILE]

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "oracle/reference_scheduler.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/scheduler_core.hpp"
#include "util/fields.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 3;
constexpr int kIters = 200;

struct Scenario {
  std::string name;
  const SequencingGraph* graph = nullptr;
  Allocation alloc;
  WashModel wash;
  SchedulerOptions opts;
};

Scenario prepare(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name;
  s.graph = &bench.graph;
  s.alloc = Allocation(bench.allocation);
  s.wash = bench.wash;
  s.opts.policy = BindingPolicy::kDcsa;
  s.opts.refine_storage = true;
  return s;
}

/// Best-of-kReps time for one batch of kIters scheduling passes, in
/// seconds per pass. `last` receives the final pass's Schedule.
template <typename SchedFn>
double time_schedule(const Scenario& s, SchedFn schedule, Schedule& last) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) last = schedule(s);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count() / kIters;
    if (rep == 0 || seconds < best) best = seconds;
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

  TextTable table({"Benchmark", "Ops", "Comps", "Ref (us)", "Core (us)",
                   "Speedup", "Ops/s", "Case I"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"iters\": " << kIters
       << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;

  for (const auto& bench : paper_benchmarks()) {
    const Scenario s = prepare(bench);

    Schedule core;
    SchedStats stats;
    const double core_s = time_schedule(
        s,
        [&stats](const Scenario& sc) {
          SchedStats pass_stats;
          Schedule out = schedule_bioassay(*sc.graph, sc.alloc, sc.wash,
                                           sc.opts, &pass_stats);
          stats = pass_stats;  // keep the last pass's counters
          return out;
        },
        core);
    Schedule ref;
    const double ref_s = time_schedule(
        s,
        [](const Scenario& sc) {
          return schedule_bioassay_reference(*sc.graph, sc.alloc, sc.wash,
                                             sc.opts);
        },
        ref);

    const bool equal = core == ref;
    if (!equal) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": scheduler core result differs from reference\n";
    }

    const double speedup = core_s > 0.0 ? ref_s / core_s : 0.0;
    const double ops_per_s =
        core_s > 0.0 ? static_cast<double>(stats.ops_scheduled) / core_s
                     : 0.0;
    table.add_row({s.name, std::to_string(s.graph->operation_count()),
                   std::to_string(s.alloc.size()),
                   format_double(ref_s * 1e6, 2),
                   format_double(core_s * 1e6, 2),
                   format_double(speedup, 2), format_double(ops_per_s, 0),
                   std::to_string(stats.case1_bindings)});

    json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
         << "\", \"operations\": " << s.graph->operation_count()
         << ", \"components\": " << s.alloc.size()
         << ", \"reference_seconds\": " << json_number(ref_s)
         << ", \"core_seconds\": " << json_number(core_s)
         << ", \"speedup\": " << json_number(speedup)
         << ", \"ops_per_second\": " << json_number(ops_per_s)
         << ", \"identical\": " << (equal ? "true" : "false")
         << ", \"scheduling\": {" << json_fields(stats) << "}}";
    first = false;
  }
  json << "\n]}";

  std::cout << "SCHEDULER CORE: flat-array Algorithm 1 vs map-based "
               "reference\n(best of " << kReps << " batches of " << kIters
            << " passes each; results verified identical)\n\n"
            << table << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
