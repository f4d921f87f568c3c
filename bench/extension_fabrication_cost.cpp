// Extension experiment: fabrication-cost roll-up, ours vs BA.
//
// Combines, per benchmark and flow, every cost driver this library can
// derive — flow-layer area (placement bounding box), channel length,
// valves, multiplexed control lines, and external pressure ports — into a
// single relative cost figure (Section I's "reduce fabrication costs"
// claim, quantified).
//
//   build/bench/extension_fabrication_cost

#include <algorithm>
#include <iostream>

#include "bench_suite/benchmarks.hpp"
#include "biochip/cost_model.hpp"
#include "core/comparison.hpp"
#include "report/table.hpp"
#include "route/control_estimate.hpp"
#include "route/pressure_ports.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;

/// Bounding-box area of the placed components plus routed channels.
int used_area_cells(const SynthesisResult& r, const Allocation& alloc) {
  int min_x = r.chip.grid_width, min_y = r.chip.grid_height;
  int max_x = 0, max_y = 0;
  auto grow = [&](int x, int y) {
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x + 1);
    max_y = std::max(max_y, y + 1);
  };
  for (const auto& comp : alloc.components()) {
    const Rect fp = r.placement.footprint(comp.id, alloc);
    grow(fp.left(), fp.bottom());
    grow(fp.right() - 1, fp.top() - 1);
  }
  for (const auto& path : r.routing.paths) {
    for (const Point& p : path.cells) grow(p.x, p.y);
  }
  if (max_x <= min_x || max_y <= min_y) return 0;
  return (max_x - min_x) * (max_y - min_y);
}

CostBreakdown cost_of(const SynthesisResult& r, const Allocation& alloc) {
  const ControlEstimate control = estimate_control_layer(r.routing);
  const MultiplexingEstimate mux = estimate_control_multiplexing(r.routing);
  const PressureAssignment ports = assign_pressure_ports(r.routing);
  return chip_cost(used_area_cells(r, alloc), r.channel_length_mm,
                   control.valve_count, mux.control_lines,
                   ports.port_count);
}

}  // namespace

int main() {
  TextTable table({"Benchmark", "Cost ours", "Cost BA", "Saving (%)",
                   "Ports ours", "Ports BA", "Area ours", "Area BA"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  for (const auto& bench : paper_benchmarks()) {
    const Allocation alloc(bench.allocation);
    const ComparisonRow row =
        compare_flows(bench.name, bench.graph, alloc, bench.wash);
    const CostBreakdown ours = cost_of(row.ours, alloc);
    const CostBreakdown ba = cost_of(row.baseline, alloc);
    const PressureAssignment p_ours = assign_pressure_ports(row.ours.routing);
    const PressureAssignment p_ba =
        assign_pressure_ports(row.baseline.routing);
    table.add_row(
        {bench.name, format_double(ours.total(), 1),
         format_double(ba.total(), 1),
         format_double(improvement_percent(ours.total(), ba.total()), 1),
         std::to_string(p_ours.port_count), std::to_string(p_ba.port_count),
         format_double(ours.area / CostWeights{}.per_area_cell, 0),
         format_double(ba.area / CostWeights{}.per_area_cell, 0)});
  }

  std::cout << "EXTENSION: fabrication-cost roll-up (area + channels + "
               "valves + control lines + pressure ports)\n\n"
            << table << "\nCSV:\n" << table.to_csv();
  return 0;
}
