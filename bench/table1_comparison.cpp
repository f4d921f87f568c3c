// Reproduces Table I: execution time, resource utilization, total channel
// length, and CPU time — proposed flow vs BA with relative improvement —
// on PCR, IVD, CPA, and Synthetic1-4, using the paper's parameters
// (alpha=0.9, beta=0.6, gamma=0.4, T0=10000, Imax=150, Tmin=1.0, t_c=2.0,
// w_e=10).
//
// Both flows for all benchmarks run as one batch on the concurrent
// synthesis engine (SynthesisEngine): results are bit-identical to the
// serial compare_flows() loop at the same seed, but the 14 jobs share a
// thread pool and the run prints the engine's per-stage telemetry.
//
//   build/bench/table1_comparison [--threads N] [--serial]

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/comparison.hpp"
#include "report/table.hpp"
#include "runtime/synthesis_engine.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace fbmb;

  SynthesisEngineOptions engine_options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      engine_options.threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serial") == 0) {
      engine_options.threads = 1;
      engine_options.parallel_restarts = false;
    } else {
      std::cerr << "usage: table1_comparison [--threads N] [--serial]\n";
      return 2;
    }
  }

  SynthesisOptions options;  // defaults == the paper's parameter set

  // Two jobs per benchmark (ours, then BA), batched onto the engine.
  const auto benches = paper_benchmarks();
  std::vector<SynthesisJob> jobs;
  jobs.reserve(benches.size() * 2);
  for (const auto& bench : benches) {
    for (const FlowPreset flow : {FlowPreset::kDcsa, FlowPreset::kBaseline}) {
      SynthesisJob job;
      job.name = bench.name + std::string(":") + flow_preset_name(flow);
      job.graph = bench.graph;
      job.allocation = Allocation(bench.allocation);
      job.wash = bench.wash;
      job.options = options;
      job.flow = flow;
      jobs.push_back(std::move(job));
    }
  }

  SynthesisEngine engine(engine_options);
  const std::vector<JobOutcome> outcomes = engine.run_batch(jobs);

  TextTable table(
      {"Benchmark", "Ops", "Components", "Exec ours", "Exec BA", "Imp (%)",
       "Ur ours", "Ur BA", "Imp (%)", "Len ours", "Len BA", "Imp (%)",
       "CPU ours", "CPU BA"},
      {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight});

  double sum_exec = 0.0, sum_ur = 0.0, sum_len = 0.0;
  for (std::size_t b = 0; b < benches.size(); ++b) {
    const auto& bench = benches[b];
    ComparisonRow row;
    row.benchmark = bench.name;
    row.operation_count = static_cast<int>(bench.graph.operation_count());
    row.allocation = bench.allocation;
    row.ours = outcomes[2 * b].entry->result;
    row.baseline = outcomes[2 * b + 1].entry->result;
    table.add_row({row.benchmark, std::to_string(row.operation_count),
                   row.allocation.to_string(),
                   format_double(row.ours.completion_time, 1),
                   format_double(row.baseline.completion_time, 1),
                   format_double(row.execution_improvement_pct(), 1),
                   format_double(row.ours.utilization * 100.0, 1),
                   format_double(row.baseline.utilization * 100.0, 1),
                   format_double(row.utilization_improvement_pct(), 1),
                   format_double(row.ours.channel_length_mm, 0),
                   format_double(row.baseline.channel_length_mm, 0),
                   format_double(row.channel_length_improvement_pct(), 1),
                   format_double(row.ours.cpu_seconds, 3),
                   format_double(row.baseline.cpu_seconds, 3)});
    sum_exec += row.execution_improvement_pct();
    sum_ur += row.utilization_improvement_pct();
    sum_len += row.channel_length_improvement_pct();
  }
  const double n = static_cast<double>(benches.size());
  table.add_row({"Average", "", "", "", "", format_double(sum_exec / n, 1),
                 "", "", format_double(sum_ur / n, 1), "", "",
                 format_double(sum_len / n, 1), "", ""});

  std::cout << "TABLE I: Comparisons on the execution time, resource "
               "utilization,\n         total channel length, and CPU time "
               "(ours vs baseline BA)\n\n"
            << table
            << "\nPaper reference averages: exec 6.4 %, utilization 12.5 %, "
               "channel length 5.7 %\n(absolute values differ — the "
               "benchmark DAGs are reconstructions — but the shape should "
               "match:\nties on PCR/IVD, positive improvements from CPA "
               "up).\n\nCSV:\n"
            << table.to_csv();

  const Telemetry::Snapshot snap = engine.telemetry().snapshot();
  std::cout << "\nEngine: " << engine.pool().thread_count() << " threads, "
            << snap.jobs_completed << " jobs, stage walls (s):";
  const char* separator = " ";
  for (const auto& field : StageTimes::kFields) {
    std::cout << separator << field.key << " "
              << format_double(snap.stage_seconds.*field.member, 3);
    separator = ", ";
  }
  std::cout << "\n";
  return 0;
}
