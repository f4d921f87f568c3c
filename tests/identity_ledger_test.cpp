// Identity ledger: the committed record of what the flows produce.
//
// tests/identity_ledger.txt holds one line per input: the 10
// extended_benchmarks() under DCSA and BA at the default placer seed, plus
// one 70-operation job whose route–retime fixpoint hits the round cap,
// each run as a SynthesisEngine job. A line carries the job's fingerprint
// (the result cache's key), a digest of its complete result JSON
// (synthesis_result_to_json with the run telemetry cpu_seconds and
// stage_seconds zeroed, so flow_stats and every other counter are
// included), the headline metrics, and the per-layer work counts that
// e2ebench's traced run reports (kColumns). "Results are byte-identical"
// is then an empty diff of that file, and a change in work is a diff of
// named count columns.
//
// On a mismatch the test names each input that moved with the columns
// that moved in it, and writes the actual ledger beside the test binary.
// A change that moves results on purpose copies it over the committed file
// with the command the failure prints (docs/TESTING.md), and explains
// every moved line.
//
// tests/identity_spill.json is a ResultCache spill of three ledger inputs
// (kSpillKeys), kept with their real run telemetry. Every entry must load,
// hit under its input's fingerprint and digest to its ledger line, and
// saving the loaded cache must reproduce the file byte for byte, so a
// format change that stops old spills loading or rewrites them fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "report/json.hpp"
#include "runtime/result_cache.hpp"
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

/// A ledger line's columns, in order.
constexpr std::string_view kColumns[] = {
    "name", "flow", "fingerprint", "result_digest", "completion_s",
    "channel_length_mm", "channel_wash_s", "cache_time_s", "fixpoints_capped",
    "rounds", "transports_reused", "nodes_expanded", "feasibility_rejections",
    "postponement_steps", "proposals", "accepts", "case1_bindings"};

/// The ledger's header: the column names and where each count comes from.
std::string ledger_header() {
  std::string header =
      "# Identity ledger (tests/identity_ledger_test.cpp). Columns:\n#";
  for (const std::string_view column : kColumns) {
    header += ' ';
    header += column;
  }
  return header +
         "\n# fixpoints_capped, nodes_expanded, feasibility_rejections and "
         "postponement_steps\n# come from the winning candidate "
         "(routing.stats). rounds and transports_reused\n# (flow_stats) and "
         "proposals and accepts (place_stats) are summed over all\n# "
         "placement candidates. case1_bindings counts the one scheduling "
         "pass (sched_stats).\n";
}

/// "name flow": the key a ledger line is matched by.
std::string job_key(const SynthesisJob& job) {
  return job.name + " " + flow_preset_name(job.flow);
}

/// The job_key a ledger line belongs to.
std::string line_key(const std::string& line) {
  std::istringstream in(line);
  std::string name, flow;
  in >> name >> flow;
  return name + " " + flow;
}

/// Column `index` (0-based) of a ledger line; empty past its last column.
std::string line_column(const std::string& line, std::size_t index) {
  std::istringstream in(line);
  std::string column;
  for (std::size_t i = 0; i <= index; ++i) {
    if (!(in >> column)) return "";
  }
  return column;
}

/// "column: want -> got" for each column in which two lines differ.
std::string column_diff(const std::string& want, const std::string& got) {
  std::string diff;
  for (std::size_t i = 0; i < std::size(kColumns); ++i) {
    const std::string w = line_column(want, i);
    const std::string g = line_column(got, i);
    if (w != g) {
      diff += "\n    ";
      diff.append(kColumns[i]).append(": ").append(w).append(" -> ").append(g);
    }
  }
  return diff;
}

/// Digest of the result JSON with the run telemetry zeroed.
std::string result_digest(SynthesisResult result) {
  result.cpu_seconds = 0.0;
  result.stage_seconds = StageTimes{};
  InputHasher digest;
  digest.str(synthesis_result_to_json(result));
  return digest.digest().to_hex();
}

std::string ledger_line(const SynthesisJob& job, const JobOutcome& outcome) {
  const SynthesisResult& result = outcome.result;
  std::string line =
      job_key(job) + " " + outcome.fingerprint.to_hex() + " " +
      result_digest(result) + " " + json_number(result.completion_time) +
      " " + json_number(result.channel_length_mm) + " " +
      json_number(result.channel_wash_time) + " " +
      json_number(result.total_cache_time);
  const RouteStats& route = result.routing.stats;
  for (const std::uint64_t count :
       {route.fixpoints_capped, result.flow_stats.rounds,
        result.flow_stats.transports_reused, route.nodes_expanded,
        route.feasibility_rejections, route.postponement_steps,
        result.place_stats.proposals, result.place_stats.accepts,
        result.sched_stats.case1_bindings}) {
    line += ' ';
    line += std::to_string(count);
  }
  return line;
}

/// The ledger's data lines, keyed by line_key; '#' lines are comments.
std::map<std::string, std::string> read_ledger(std::istream& in) {
  std::map<std::string, std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines[line_key(line)] = line;
  }
  return lines;
}

/// Runs every ledger job, in ledger_jobs() order.
std::vector<JobOutcome> run_ledger_jobs(const std::vector<SynthesisJob>& jobs) {
  SynthesisEngineOptions engine_options;
  engine_options.threads = 1;
  SynthesisEngine engine(engine_options);
  std::vector<JobOutcome> outcomes;
  for (const SynthesisJob& job : jobs) outcomes.push_back(engine.run_job(job));
  return outcomes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(IdentityLedger, EveryInputMatchesTheCommittedLedger) {
  const std::vector<SynthesisJob> jobs = ledger_jobs();
  const std::vector<JobOutcome> outcomes = run_ledger_jobs(jobs);
  std::string actual = ledger_header();
  std::map<std::string, std::string> got;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string line = ledger_line(jobs[i], outcomes[i]);
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
      moved.push_back("  moved:   " + key + column_diff(it->second, line));
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

TEST(IdentityLedger, EveryResultIsAParseSerializeFixedPoint) {
  const std::vector<SynthesisJob> jobs = ledger_jobs();
  const std::vector<JobOutcome> outcomes = run_ledger_jobs(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string json = synthesis_result_to_json(outcomes[i].result);
    const std::optional<SynthesisResult> parsed =
        synthesis_result_from_json(json);
    ASSERT_TRUE(parsed.has_value()) << job_key(jobs[i]);
    EXPECT_TRUE(*parsed == outcomes[i].result) << job_key(jobs[i]);
    EXPECT_EQ(synthesis_result_to_json(*parsed), json) << job_key(jobs[i]);
  }
}

/// The ledger inputs tests/identity_spill.json holds: one DCSA, one BA and
/// the capped job.
constexpr std::string_view kSpillKeys[] = {"CPA dcsa", "CPA baseline",
                                           "Synth70-g3 dcsa"};

bool in_spill(const SynthesisJob& job) {
  for (const std::string_view key : kSpillKeys) {
    if (job_key(job) == key) return true;
  }
  return false;
}

TEST(IdentityLedger, CommittedSpillLoadsHitsAndReproduces) {
  ResultCache cache;
  EXPECT_EQ(cache.load_json(MSYNTH_SPILL_FILE), std::size(kSpillKeys))
      << "cannot load every entry of " << MSYNTH_SPILL_FILE;
  // Saved before any lookup refreshes recency, the cache writes the
  // entries in the spill's order.
  const std::string resaved = ::testing::TempDir() + "identity_spill.json";
  ASSERT_TRUE(cache.save_json(resaved));
  EXPECT_TRUE(read_file(resaved) == read_file(MSYNTH_SPILL_FILE))
      << "saving the loaded spill does not reproduce "
      << MSYNTH_SPILL_FILE;

  std::ifstream committed(MSYNTH_LEDGER_FILE);
  const auto want = read_ledger(committed);
  const std::vector<SynthesisJob> jobs = ledger_jobs();
  for (const SynthesisJob& job : jobs) {
    if (!in_spill(job)) continue;
    const std::optional<SynthesisResult> hit =
        cache.lookup(fingerprint_inputs(job.graph, job.allocation, job.wash,
                                        job.options, job.flow));
    if (!hit) {
      ADD_FAILURE() << job_key(job) << " misses under its fingerprint";
      continue;
    }
    EXPECT_GT(hit->cpu_seconds, 0.0) << job_key(job);
    const auto line = want.find(job_key(job));
    if (line == want.end()) {
      ADD_FAILURE() << job_key(job) << " has no ledger line";
      continue;
    }
    EXPECT_EQ(result_digest(*hit), line_column(line->second, 3))
        << job_key(job);
  }
  if (!HasFailure()) return;

  // A fresh spill of the same inputs, for a change that moves the format
  // or the results on purpose.
  const std::vector<JobOutcome> outcomes = run_ledger_jobs(jobs);
  ResultCache fresh;
  // Most recent first in the spill: insert in reverse for ledger order.
  for (std::size_t i = jobs.size(); i-- > 0;) {
    if (in_spill(jobs[i])) {
      fresh.insert(outcomes[i].fingerprint, outcomes[i].result);
    }
  }
  ASSERT_TRUE(fresh.save_json(MSYNTH_SPILL_ACTUAL));
  ADD_FAILURE() << "A fresh spill is in " << MSYNTH_SPILL_ACTUAL
                << ". If the change is intended, say why in CHANGES.md "
                   "and run:\n  cp "
                << MSYNTH_SPILL_ACTUAL << " " << MSYNTH_SPILL_FILE;
}

}  // namespace
}  // namespace fbmb
