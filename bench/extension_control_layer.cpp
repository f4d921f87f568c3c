// Extension experiment: control-layer cost of the two flows.
//
// The paper's conclusion names control-logic optimization (ref. [13]) as
// future work. This bench estimates the control layer implied by each
// flow's routed solution — valve count, junction cells, and total valve
// switching over the assay — showing the flow-layer decisions' knock-on
// effect: shared, wash-cheap channels (ours) need fewer valves overall.
//
//   build/bench/extension_control_layer

#include <iostream>

#include "bench_suite/benchmarks.hpp"
#include "core/comparison.hpp"
#include "report/table.hpp"
#include "route/control_estimate.hpp"
#include "route/control_router.hpp"
#include "util/strings.hpp"

int main() {
  using namespace fbmb;

  TextTable table({"Benchmark", "Valves ours", "Valves BA", "Junctions ours",
                   "Junctions BA", "Switches ours", "Switches BA",
                   "Ctrl lines ours", "Ctrl lines BA", "Ctrl len ours",
                   "Ctrl len BA"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});

  for (const auto& bench : paper_benchmarks()) {
    const ComparisonRow row = compare_flows(
        bench.name, bench.graph, Allocation(bench.allocation), bench.wash);
    const ControlEstimate ours = estimate_control_layer(row.ours.routing);
    const ControlEstimate ba = estimate_control_layer(row.baseline.routing);
    const MultiplexingEstimate mux_ours =
        estimate_control_multiplexing(row.ours.routing);
    const MultiplexingEstimate mux_ba =
        estimate_control_multiplexing(row.baseline.routing);
    table.add_row({bench.name, std::to_string(ours.valve_count),
                   std::to_string(ba.valve_count),
                   std::to_string(ours.junction_cells),
                   std::to_string(ba.junction_cells),
                   std::to_string(ours.switching_count),
                   std::to_string(ba.switching_count),
                   std::to_string(mux_ours.control_lines),
                   std::to_string(mux_ba.control_lines),
                   std::to_string(route_control_layer(row.ours.routing,
                                                      row.ours.chip)
                                      .total_cells()),
                   std::to_string(route_control_layer(row.baseline.routing,
                                                      row.baseline.chip)
                                      .total_cells())});
  }

  std::cout << "EXTENSION: estimated control-layer cost (valves & "
               "switching)\nStructural model: k valves per k-way junction "
               "cell + one valve per component\nport stub; every task pass "
               "opens and closes its path's valves (wash flushes\ncount as "
               "an extra pass). Ref. [13]'s multiplexing optimization is "
               "out of scope.\n\n"
            << table << "\nCSV:\n" << table.to_csv();
  return 0;
}
