// Identity ledger: the committed record of what the flows produce.
//
// tests/identity_ledger.txt holds one line per input: the 10
// extended_benchmarks() under DCSA and BA at the default placer seed, plus
// one 70-operation job whose route–retime fixpoint hits the round cap,
// each run as a SynthesisEngine job. A line carries the job's fingerprint
// (the result cache's key), a digest of its complete result JSON
// (synthesis_result_to_json with the run telemetry cpu_seconds and
// stage_seconds zeroed, so flow_stats and every other counter are
// included), and the headline metrics. "Results are byte-identical" is
// then an empty diff of that file.
//
// On a mismatch the test names each input that moved and writes the
// actual ledger beside the test binary. A change that moves results on
// purpose copies it over the committed file with the command the failure
// prints (docs/TESTING.md), and explains every moved line.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "report/json.hpp"
#include "runtime/result_io.hpp"
#include "runtime/synthesis_engine.hpp"
#include "util/rng.hpp"

namespace fbmb {
namespace {

std::vector<SynthesisJob> ledger_jobs() {
  std::vector<SynthesisJob> out;
  for (const Benchmark& bench : extended_benchmarks()) {
    for (const FlowPreset flow : {FlowPreset::kDcsa, FlowPreset::kBaseline}) {
      SynthesisJob job;
      job.name = bench.name;
      job.graph = bench.graph;
      job.allocation = Allocation(bench.allocation);
      job.wash = bench.wash;
      job.flow = flow;
      out.push_back(std::move(job));
    }
  }
  // Its fixpoint is capped: the one input whose (schedule, routing) pair is
  // not consistent (RouterOptions::max_fixpoint_rounds).
  SyntheticSpec spec;
  spec.operations = 70;
  spec.seed = 3;
  spec.allocation = {7, 4, 4, 3};
  SynthesisJob capped;
  capped.name = "Synth70-g3";
  capped.graph = generate_synthetic_graph(spec);
  capped.allocation = Allocation(spec.allocation);
  capped.options.placer.seed = fork_seed(777, 32);
  out.push_back(std::move(capped));
  return out;
}

/// "name flow": the key a ledger line is matched by.
std::string line_key(const std::string& line) {
  std::istringstream in(line);
  std::string name, flow;
  in >> name >> flow;
  return name + " " + flow;
}

std::string ledger_line(const SynthesisJob& job, JobOutcome outcome) {
  SynthesisResult& result = outcome.result;
  result.cpu_seconds = 0.0;
  result.stage_seconds = StageTimes{};
  InputHasher digest;
  digest.str(synthesis_result_to_json(result));
  return job.name + " " + flow_preset_name(job.flow) + " " +
         outcome.fingerprint.to_hex() + " " + digest.digest().to_hex() +
         " " + json_number(result.completion_time) + " " +
         json_number(result.channel_length_mm) + " " +
         json_number(result.channel_wash_time) + " " +
         json_number(result.total_cache_time) + " " +
         std::to_string(result.routing.stats.fixpoints_capped);
}

/// The ledger's data lines, keyed by line_key; '#' lines are comments.
std::map<std::string, std::string> read_ledger(std::istream& in) {
  std::map<std::string, std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines[line_key(line)] = line;
  }
  return lines;
}

TEST(IdentityLedger, EveryInputMatchesTheCommittedLedger) {
  SynthesisEngineOptions engine_options;
  engine_options.threads = 1;
  SynthesisEngine engine(engine_options);
  std::string actual =
      "# Identity ledger (tests/identity_ledger_test.cpp). Columns:\n"
      "# name flow fingerprint result_digest completion_s "
      "channel_length_mm channel_wash_s cache_time_s fixpoints_capped\n";
  std::map<std::string, std::string> got;
  for (const SynthesisJob& job : ledger_jobs()) {
    const std::string line = ledger_line(job, engine.run_job(job));
    actual += line + "\n";
    got[line_key(line)] = line;
  }
  EXPECT_EQ(got.size(), 21u);

  std::ifstream committed(MSYNTH_LEDGER_FILE);
  EXPECT_TRUE(committed) << "cannot read " << MSYNTH_LEDGER_FILE;
  const auto want = read_ledger(committed);
  std::vector<std::string> moved;
  for (const auto& [key, line] : got) {
    const auto it = want.find(key);
    if (it == want.end()) {
      moved.push_back("  new:     " + line);
    } else if (it->second != line) {
      moved.push_back("  ledger:  " + it->second + "\n  actual:  " + line);
    }
  }
  for (const auto& [key, line] : want) {
    if (!got.count(key)) moved.push_back("  missing: " + line);
  }
  if (moved.empty()) return;

  std::ofstream(MSYNTH_LEDGER_ACTUAL) << actual;
  std::string report;
  for (const std::string& entry : moved) report += entry + "\n";
  ADD_FAILURE() << moved.size() << " input(s) moved:\n"
                << report << "The actual ledger is in " << MSYNTH_LEDGER_ACTUAL
                << ". If every move is intended, explain each in CHANGES.md "
                   "and run:\n  cp "
                << MSYNTH_LEDGER_ACTUAL << " " << MSYNTH_LEDGER_FILE;
}

}  // namespace
}  // namespace fbmb
