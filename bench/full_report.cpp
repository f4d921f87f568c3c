// One-shot experiment report: runs the complete evaluation — Table I,
// Fig. 8, Fig. 9, the motivation comparison, and the control/cost
// extensions — over the extended benchmark suite and writes a single
// markdown report to stdout (redirect to a file to archive a run).
//
//   build/bench/full_report > report.md

#include <iostream>

#include "bench_suite/benchmarks.hpp"
#include "core/comparison.hpp"
#include "report/table.hpp"
#include "route/control_estimate.hpp"
#include "route/pressure_ports.hpp"
#include "schedule/dedicated_scheduler.hpp"
#include "util/strings.hpp"

namespace {

std::string md_table(const fbmb::TextTable& table) {
  // The plain text rendering inside a fenced block keeps alignment.
  return "```\n" + table.to_string() + "```\n";
}

}  // namespace

int main() {
  using namespace fbmb;

  std::cout << "# msynth experiment report\n\n"
            << "Extended benchmark suite (Table-I seven + ProteinSplit2/3 + "
               "GlucosePanel),\nproposed DCSA flow vs baseline BA, paper "
               "parameter set.\n\n";

  TextTable main_table(
      {"Benchmark", "Ops", "Exec ours", "Exec BA", "Ur ours (%)",
       "Ur BA (%)", "Len ours", "Len BA", "Cache ours", "Cache BA",
       "Wash ours", "Wash BA"},
      {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  TextTable extras(
      {"Benchmark", "Valves ours", "Valves BA", "Ports ours", "Ports BA",
       "Dedic. exec", "Dedic. peak cells"},
      {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight, Align::kRight});

  for (const auto& bench : extended_benchmarks()) {
    const Allocation alloc(bench.allocation);
    const ComparisonRow row =
        compare_flows(bench.name, bench.graph, alloc, bench.wash);
    main_table.add_row(
        {bench.name, std::to_string(row.operation_count),
         format_double(row.ours.completion_time, 1),
         format_double(row.baseline.completion_time, 1),
         format_double(row.ours.utilization * 100.0, 1),
         format_double(row.baseline.utilization * 100.0, 1),
         format_double(row.ours.channel_length_mm, 0),
         format_double(row.baseline.channel_length_mm, 0),
         format_double(row.ours.total_cache_time, 1),
         format_double(row.baseline.total_cache_time, 1),
         format_double(row.ours.channel_wash_time, 1),
         format_double(row.baseline.channel_wash_time, 1)});

    const auto control_ours = estimate_control_layer(row.ours.routing);
    const auto control_ba = estimate_control_layer(row.baseline.routing);
    const auto ports_ours = assign_pressure_ports(row.ours.routing);
    const auto ports_ba = assign_pressure_ports(row.baseline.routing);
    const auto dedicated = schedule_dedicated(bench.graph, alloc, bench.wash);
    extras.add_row({bench.name, std::to_string(control_ours.valve_count),
                    std::to_string(control_ba.valve_count),
                    std::to_string(ports_ours.port_count),
                    std::to_string(ports_ba.port_count),
                    format_double(dedicated.schedule.completion_time, 1),
                    std::to_string(dedicated.peak_storage_usage)});
  }

  std::cout << "## Core comparison (Table I + Fig. 8 + Fig. 9 metrics)\n\n"
            << md_table(main_table)
            << "\n## Architecture extensions (control layer, pressure "
               "ports, dedicated-storage reference)\n\n"
            << md_table(extras) << '\n';
  return 0;
}
