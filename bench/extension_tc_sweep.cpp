// Extension experiment: sensitivity to the transport-time constant t_c.
//
// The paper assumes a user-defined constant transportation time t_c
// (Section IV-A; its experiments use t_c = 2.0). This bench sweeps t_c on
// CPA for both flows: completion time grows with t_c for both, but the
// DCSA flow's in-place hand-offs make it markedly less sensitive — the
// advantage widens as transports get slower, confirming the architectural
// intuition that channel storage pays off most when movement is expensive.
//
// The ten (t_c, flow) points run as one batch on the concurrent synthesis
// engine; only the scheduler's transport_time differs between jobs, so
// the sweep also exercises the engine's content-addressed cache keys
// (every point must miss — a hit would mean t_c leaked out of the key).
//
//   build/bench/extension_tc_sweep

#include <iostream>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "report/table.hpp"
#include "runtime/synthesis_engine.hpp"
#include "util/strings.hpp"

int main() {
  using namespace fbmb;

  const auto bench = make_cpa();
  const std::vector<double> tc_values = {0.5, 1.0, 2.0, 4.0, 8.0};

  std::vector<SynthesisJob> jobs;
  jobs.reserve(tc_values.size() * 2);
  for (const double tc : tc_values) {
    for (const FlowPreset flow : {FlowPreset::kDcsa, FlowPreset::kBaseline}) {
      SynthesisJob job;
      job.name = std::string("cpa tc=") + format_double(tc, 1) +
                 std::string(":") + flow_preset_name(flow);
      job.graph = bench.graph;
      job.allocation = Allocation(bench.allocation);
      job.wash = bench.wash;
      job.options.scheduler.transport_time = tc;
      job.flow = flow;
      jobs.push_back(std::move(job));
    }
  }

  SynthesisEngine engine;
  const std::vector<JobOutcome> outcomes = engine.run_batch(jobs);

  TextTable table({"t_c (s)", "Exec ours", "Exec BA", "Imp (%)",
                   "Transports ours", "In-place ours"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});

  for (std::size_t i = 0; i < tc_values.size(); ++i) {
    const SynthesisResult& ours = outcomes[2 * i].entry->result;
    const SynthesisResult& ba = outcomes[2 * i + 1].entry->result;
    table.add_row(
        {format_double(tc_values[i], 1),
         format_double(ours.completion_time, 1),
         format_double(ba.completion_time, 1),
         format_double(improvement_percent(ours.completion_time,
                                           ba.completion_time), 1),
         std::to_string(ours.stats.transport_count),
         std::to_string(ours.stats.in_place_count)});
  }

  std::cout << "EXTENSION: transport-time (t_c) sensitivity on CPA "
               "(paper uses t_c = 2.0)\n\n"
            << table << "\nCSV:\n" << table.to_csv();

  std::cout << "\nEngine cache: " << engine.cache().misses() << " misses, "
            << engine.cache().hits()
            << " hits (each t_c must be a distinct key)\n";
  return 0;
}
