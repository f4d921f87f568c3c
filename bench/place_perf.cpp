// Placer-core micro-benchmark: incremental PlacerCore vs the
// full-recompute reference placer, and BA's incremental correction loop
// vs its reference.
//
// For every paper benchmark this bench builds one schedule with the
// paper's DCSA flow, then times place_component_candidates (delta
// energies, in-place moves, occupancy-grid legality) against
// place_component_candidates_reference (per-proposal Placement copies and
// full energy recomputation), verifying along the way that the two
// produce bit-identical placements and energies. A second row per
// benchmark ("<name>/BA") builds the BA flow's schedule and times
// place_components_baseline against place_components_baseline_reference,
// verifying identical origins and rotations. Reports a table and a JSON
// object with per-row timings, proposal throughput, and the SA core's
// search counters.
//
//   build/bench/place_perf [--json-out FILE]

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "oracle/reference_placer.hpp"
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

constexpr int kReps = 3;

struct Scenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  WashModel wash;
  PlacerOptions placer;
  std::vector<Net> nets;
};

Scenario prepare(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name;
  s.alloc = Allocation(bench.allocation);
  s.wash = bench.wash;
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  s.placer.restarts = 1;  // per-restart proposal throughput
  s.nets = build_nets(s.schedule, s.wash, s.placer.beta, s.placer.gamma);
  return s;
}

bool identical(const Scenario& s, const std::vector<Placement>& a,
               const std::vector<Placement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (const auto& comp : s.alloc.components()) {
      if (a[r].at(comp.id).origin != b[r].at(comp.id).origin ||
          a[r].at(comp.id).rotated != b[r].at(comp.id).rotated) {
        return false;
      }
    }
    const double ea =
        placement_energy(a[r], s.alloc, s.nets, s.placer.compaction_weight);
    const double eb =
        placement_energy(b[r], s.alloc, s.nets, s.placer.compaction_weight);
    if (ea != eb) return false;  // bitwise
  }
  return true;
}

template <typename PlaceFn, typename Result>
double time_place(const Scenario& s, PlaceFn place, Result& last) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    Result result = place(s);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < best) best = seconds;
    last = std::move(result);
  }
  return best;
}

/// The BA flow's placement input: earliest-ready binding, no storage
/// refinement.
Scenario prepare_baseline(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name + "/BA";
  s.alloc = Allocation(bench.allocation);
  s.wash = bench.wash;
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  return s;
}

bool identical_baseline(const Scenario& s, const Placement& a,
                        const Placement& b) {
  for (const auto& comp : s.alloc.components()) {
    if (a.at(comp.id).origin != b.at(comp.id).origin ||
        a.at(comp.id).rotated != b.at(comp.id).rotated) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  TextTable table({"Benchmark", "Comps", "Nets", "Ref (ms)", "Core (ms)",
                   "Speedup", "Proposals/s", "Accepts"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;

  for (const auto& bench : paper_benchmarks()) {
    const Scenario s = prepare(bench);

    std::vector<Placement> core;
    PlaceStats stats;
    const double core_s = time_place(
        s,
        [&stats](const Scenario& sc) {
          PlaceStats rep_stats;
          auto out = place_component_candidates(sc.alloc, sc.schedule,
                                                sc.wash, sc.chip, sc.placer,
                                                &rep_stats);
          stats = rep_stats;  // keep the last rep's counters
          return out;
        },
        core);
    std::vector<Placement> ref;
    const double ref_s = time_place(
        s,
        [](const Scenario& sc) {
          return place_component_candidates_reference(
              sc.alloc, sc.schedule, sc.wash, sc.chip, sc.placer);
        },
        ref);

    if (!identical(s, core, ref)) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": placer core result differs from reference\n";
    }

    const double speedup = core_s > 0.0 ? ref_s / core_s : 0.0;
    const double proposals_per_s =
        core_s > 0.0 ? static_cast<double>(stats.proposals) / core_s : 0.0;
    table.add_row({s.name, std::to_string(s.alloc.size()),
                   std::to_string(s.nets.size()),
                   format_double(ref_s * 1e3, 3),
                   format_double(core_s * 1e3, 3),
                   format_double(speedup, 2),
                   format_double(proposals_per_s, 0),
                   std::to_string(stats.accepts)});

    json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
         << "\", \"components\": " << s.alloc.size()
         << ", \"nets\": " << s.nets.size()
         << ", \"reference_seconds\": " << json_number(ref_s)
         << ", \"core_seconds\": " << json_number(core_s)
         << ", \"speedup\": " << json_number(speedup)
         << ", \"proposals_per_second\": " << json_number(proposals_per_s)
         << ", \"identical\": " << (identical(s, core, ref) ? "true" : "false")
         << ", \"placement\": {" << json_fields(stats) << "}}";
    first = false;

    const Scenario b = prepare_baseline(bench);
    Placement ba_core;
    const double ba_core_s = time_place(
        b,
        [](const Scenario& sc) {
          return place_components_baseline(sc.alloc, sc.schedule, sc.chip);
        },
        ba_core);
    Placement ba_ref;
    const double ba_ref_s = time_place(
        b,
        [](const Scenario& sc) {
          return place_components_baseline_reference(sc.alloc, sc.schedule,
                                                     sc.chip);
        },
        ba_ref);
    const bool ba_identical = identical_baseline(b, ba_core, ba_ref);
    if (!ba_identical) {
      all_equal = false;
      std::cerr << "MISMATCH: " << b.name
                << ": baseline placer result differs from reference\n";
    }
    const double ba_speedup = ba_core_s > 0.0 ? ba_ref_s / ba_core_s : 0.0;
    table.add_row({b.name, std::to_string(b.alloc.size()), "-",
                   format_double(ba_ref_s * 1e3, 3),
                   format_double(ba_core_s * 1e3, 3),
                   format_double(ba_speedup, 2), "-", "-"});
    json << ",\n  {\"name\": \"" << b.name
         << "\", \"components\": " << b.alloc.size()
         << ", \"reference_seconds\": " << json_number(ba_ref_s)
         << ", \"core_seconds\": " << json_number(ba_core_s)
         << ", \"speedup\": " << json_number(ba_speedup)
         << ", \"identical\": " << (ba_identical ? "true" : "false") << "}";
  }
  json << "\n]}";

  std::cout << "PLACER CORE: incremental delta-energy SA vs full-recompute "
               "reference,\nand BA's incremental correction loop (/BA rows) vs "
               "its reference\n(best of " << kReps
            << " runs per placer; results verified identical)\n\n"
            << table << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
