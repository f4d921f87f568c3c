// Motivation experiment (Section I / Fig. 1): DCSA vs the conventional
// dedicated-storage architecture.
//
// The paper justifies DCSA by three limitations of the classic design:
// constrained storage capacity, the single multiplexed port that
// serializes every storage access, and the chip area the unit occupies.
// This bench quantifies all three on the Table-I benchmarks: bioassay
// completion time under both architectures, the port's busy/blocking time,
// peak storage demand, and the estimated chip area with and without the
// dedicated unit.
//
//   build/bench/motivation_dedicated_storage

#include <iostream>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "report/table.hpp"
#include "schedule/dedicated_scheduler.hpp"
#include "schedule/metrics.hpp"
#include "util/strings.hpp"

int main() {
  using namespace fbmb;

  DedicatedStorageOptions storage_opts;  // 8 cells, 1 s mux transactions

  TextTable table({"Benchmark", "Exec DCSA", "Exec dedic.", "Slowdown (%)",
                   "Port busy (s)", "Blocked (s)", "Peak cells",
                   "Area DCSA", "Area dedic."},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  for (const auto& bench : paper_benchmarks()) {
    const Allocation alloc(bench.allocation);

    const auto dcsa = synthesize_dcsa(bench.graph, alloc, bench.wash);
    const auto dedicated =
        schedule_dedicated(bench.graph, alloc, bench.wash, storage_opts);

    // Chip-area model: component footprints (with spacing) inflated by the
    // routing factor used in grid derivation; the dedicated design adds
    // the storage unit's block.
    const int comp_area = allocation_area(alloc, 1);
    const int unit_area = (storage_opts.unit_width + 1) *
                          (storage_opts.unit_height + 1);
    const double slowdown =
        gain_percent(dedicated.schedule.completion_time,
                     dcsa.completion_time);

    table.add_row({bench.name, format_double(dcsa.completion_time, 1),
                   format_double(dedicated.schedule.completion_time, 1),
                   format_double(slowdown, 1),
                   format_double(dedicated.port_busy_time, 1),
                   format_double(dedicated.storage_wait_time, 1),
                   std::to_string(dedicated.peak_storage_usage),
                   std::to_string(comp_area),
                   std::to_string(comp_area + unit_area)});
  }

  std::cout << "MOTIVATION: DCSA vs conventional dedicated-storage "
               "architecture (Fig. 1)\n"
               "Port transactions serialize every storage access; "
               "'Blocked' is time producers\nwait with a finished fluid "
               "because the port is busy. Area in grid cells\n(components "
               "+ spacing; dedicated adds the storage unit's block).\n\n"
            << table << "\nCSV:\n" << table.to_csv();
  return 0;
}
