// Batch synthesis across the whole paper suite on the concurrent runtime.
//
// Runs all seven Table-I benchmarks (PCR, IVD, CPA, Synthetic1-4) through
// the DCSA flow concurrently on SynthesisEngine, then runs the identical
// batch a second time to demonstrate the content-addressed result cache
// (every second-pass job is a hit). Prints a per-benchmark table, the
// engine telemetry summary, and optionally the full telemetry JSON.
//
//   build/examples/batch_synth [options]
//
//   --threads N        worker threads (default: hardware concurrency)
//   --passes N         how many times to run the batch (default: 2)
//   --cache-file PATH  load the result cache from PATH before the first
//                      pass and save it back after the last one
//   --json             print the engine's telemetry JSON for the last pass
//   --verify-serial    recompute every benchmark with the serial flow and
//                      fail unless the batch results are bit-identical
//   --seed S           SA placer seed for all jobs (default: options')
//   --trace-out PATH   enable tracing; write Chrome-trace JSON on exit

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "report/table.hpp"
#include "runtime/synthesis_engine.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace {

void print_usage() {
  std::cerr << "usage: batch_synth [--threads N] [--passes N]\n"
               "                   [--cache-file PATH] [--json]\n"
               "                   [--verify-serial] [--seed S]\n"
               "                   [--trace-out PATH]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbmb;

  SynthesisEngineOptions engine_options;
  int passes = 2;
  std::string cache_file;
  std::string trace_out;
  bool print_json = false;
  bool verify_serial = false;
  SynthesisOptions options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      engine_options.threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--passes") == 0 && i + 1 < argc) {
      passes = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--cache-file") == 0 && i + 1 < argc) {
      cache_file = argv[++i];
    } else if (std::strcmp(arg, "--json") == 0) {
      print_json = true;
    } else if (std::strcmp(arg, "--verify-serial") == 0) {
      verify_serial = true;
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      options.placer.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      print_usage();
      return 2;
    }
  }
  if (passes < 1) {
    print_usage();
    return 2;
  }
  if (!trace_out.empty()) {
    trace::TraceRecorder::instance().set_enabled(true);
    trace::TraceRecorder::instance().set_current_thread_name(
        "batch-synth-main");
  }

  const auto benches = paper_benchmarks();
  std::vector<SynthesisJob> jobs;
  jobs.reserve(benches.size());
  for (const auto& bench : benches) {
    SynthesisJob job;
    job.name = bench.name;
    job.graph = bench.graph;
    job.allocation = Allocation(bench.allocation);
    job.wash = bench.wash;
    job.options = options;
    job.flow = FlowPreset::kDcsa;
    jobs.push_back(std::move(job));
  }

  SynthesisEngine engine(engine_options);
  if (!cache_file.empty()) {
    const std::size_t loaded = engine.cache().load_json(cache_file);
    if (loaded > 0) {
      std::cout << "Loaded " << loaded << " cached results from "
                << cache_file << "\n";
    }
  }

  std::vector<JobOutcome> outcomes;
  for (int pass = 1; pass <= passes; ++pass) {
    outcomes = engine.run_batch(jobs);

    TextTable table({"Benchmark", "Completion", "Utilization", "Length",
                     "Wall (s)", "Cache"},
                    {Align::kLeft, Align::kRight, Align::kRight,
                     Align::kRight, Align::kRight, Align::kLeft});
    for (const JobOutcome& out : outcomes) {
      // A hit leaves out.result empty; every outcome's entry holds it.
      const SynthesisResult& result = out.entry->result;
      table.add_row({out.name, format_double(result.completion_time, 1),
                     format_double(result.utilization * 100.0, 1),
                     format_double(result.channel_length_mm, 0),
                     format_double(out.wall_seconds, 4),
                     out.cache_hit ? "hit" : "miss"});
    }
    std::cout << "\nPass " << pass << "/" << passes << " ("
              << engine.pool().thread_count() << " threads)\n"
              << table;
  }

  if (verify_serial) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SynthesisResult serial = synthesize_dcsa(
          jobs[i].graph, jobs[i].allocation, jobs[i].wash, jobs[i].options);
      const SynthesisResult& batch = outcomes[i].entry->result;
      if (serial.completion_time != batch.completion_time ||
          serial.utilization != batch.utilization ||
          serial.channel_length_mm != batch.channel_length_mm) {
        std::cerr << "MISMATCH on " << jobs[i].name << ": serial "
                  << serial.completion_time << "/" << serial.utilization
                  << "/" << serial.channel_length_mm << " vs batch "
                  << batch.completion_time << "/" << batch.utilization
                  << "/" << batch.channel_length_mm << "\n";
        ++mismatches;
      }
    }
    if (mismatches > 0) return 1;
    std::cout << "\nverify-serial: all " << jobs.size()
              << " benchmarks bit-identical to the serial flow\n";
  }

  const Telemetry::Snapshot snap = engine.telemetry().snapshot();
  std::cout << "\nTelemetry: " << snap.jobs_completed << " jobs, "
            << engine.cache().hits() << " cache hits, "
            << engine.cache().misses() << " misses\n  stage walls (s):";
  const char* separator = " ";
  for (const auto& field : StageTimes::kFields) {
    std::cout << separator << field.key << " "
              << format_double(snap.stage_seconds.*field.member, 3);
    separator = ", ";
  }
  std::cout << "\n  max queue depth: " << engine.pool().max_queue_depth()
            << "\n";

  if (print_json) {
    std::cout << "\n" << engine.telemetry_json(outcomes) << "\n";
  }

  if (!cache_file.empty()) {
    if (engine.cache().save_json(cache_file)) {
      std::cout << "Saved " << engine.cache().size() << " results to "
                << cache_file << "\n";
    } else {
      std::cerr << "Failed to save cache to " << cache_file << "\n";
      return 1;
    }
  }
  if (!trace_out.empty()) {
    std::string error;
    if (trace::write_chrome_trace_file(trace_out, &error)) {
      std::cout << "Trace written to " << trace_out << "\n";
    } else {
      std::cerr << "trace-out: " << error << "\n";
      return 1;
    }
  }
  return 0;
}
