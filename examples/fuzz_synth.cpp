// Differential fuzzing driver: random scenarios through every core-vs-
// reference pair, with shrinking and corpus replay.
//
// Generates seeded random scenarios (src/testgen/generator.hpp) and runs
// each through the differential oracle — scheduler, placer, router, and
// route-retime fixpoint cores against their frozen reference twins, plus
// the schedule/routing validators and the discrete-event chip simulator. Any divergence is
// written to --repro-dir as a self-contained assay file; with --shrink it
// is first reduced to a minimal repro by the deterministic greedy
// shrinker. Shrunk repros are meant to be committed under tests/corpus/,
// where corpus_regression_test replays them forever.
//
//   build/examples/fuzz_synth [options]
//
//   --seed S           master seed (default: 1)
//   --count N          scenarios to generate (default: 200)
//   --time-budget SEC  stop early after SEC seconds (default: 0 = none)
//   --max-ops N        generator operation ceiling (default: 18)
//   --shrink           shrink divergent scenarios before writing them
//   --repro-dir DIR    where divergence repros go (default: repros)
//   --corpus DIR       replay every *.assay under DIR before fuzzing
//   --inject KIND      apply a known fault (schedule | route) to the core
//                      side of every oracle run; for harness testing
//   --json-out PATH    write a machine-readable summary (gated in CI by
//                      scripts/check_bench.py --fuzz)
//   --self-test        prove the harness works: for each injection kind,
//                      find a divergence, shrink it, and require the
//                      minimal repro to have at most 8 operations
//   --trace-out PATH   enable tracing; write Chrome-trace JSON on exit
//                      (spans cover the core side of every oracle run)
//
// Exit status: 0 when every scenario passed (or the self-test proved
// detection), 1 on any divergence, 2 on usage errors.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "testgen/generator.hpp"
#include "testgen/oracle.hpp"
#include "testgen/scenario.hpp"
#include "testgen/shrinker.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

namespace {

using namespace fbmb;

void print_usage() {
  std::cerr
      << "usage: fuzz_synth [--seed S] [--count N] [--time-budget SEC]\n"
         "                  [--max-ops N] [--shrink]\n"
         "                  [--repro-dir DIR] [--corpus DIR]\n"
         "                  [--inject schedule|route] [--json-out PATH]\n"
         "                  [--self-test] [--trace-out PATH]\n";
}

struct Totals {
  std::uint64_t executed = 0;
  std::uint64_t divergences = 0;
  std::uint64_t degenerate = 0;
  std::uint64_t corpus_replayed = 0;
  std::uint64_t non_converged = 0;
  std::uint64_t operations = 0;
  std::uint64_t transports = 0;
  std::uint64_t max_fixpoint_rounds = 0;
};

void tally(Totals& totals, const OracleReport& report) {
  ++totals.executed;
  if (!report.ok) ++totals.divergences;
  if (report.degenerate) ++totals.degenerate;
  if (!report.fixpoint_converged) ++totals.non_converged;
  totals.operations += report.operations;
  totals.transports += report.transports;
  totals.max_fixpoint_rounds =
      std::max(totals.max_fixpoint_rounds, report.fixpoint_rounds);
}

std::string write_repro(const Scenario& scenario, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::string path = dir;
  path += "/repro-";
  path += scenario.name;
  path += ".assay";
  std::ofstream out(path);
  out << write_scenario(scenario);
  return path;
}

void report_divergence(const Scenario& scenario, const OracleReport& report,
                       const OracleOptions& oracle_options, bool shrink,
                       const std::string& repro_dir) {
  std::cerr << "DIVERGENCE in " << scenario.name << ":\n";
  for (const auto& failure : report.failures) {
    std::cerr << "  " << failure << "\n";
  }
  Scenario repro = scenario;
  if (shrink) {
    ShrinkStats stats;
    repro = shrink_scenario(
        scenario,
        [&](const Scenario& candidate) {
          return !run_differential_oracle(candidate, oracle_options).ok;
        },
        &stats);
    std::cerr << "  shrunk to " << repro.graph.operation_count()
              << " op(s) in " << stats.attempts << " attempts ("
              << stats.accepted << " accepted, " << stats.rounds
              << " rounds)\n";
  }
  std::cerr << "  repro written to " << write_repro(repro, repro_dir)
            << "\n";
}

/// Self-test: inject each known fault, require the oracle to flag it, and
/// require the shrinker to reduce the repro to at most 8 operations.
int run_self_test(std::uint64_t seed, const GeneratorOptions& gen_options,
                  OracleOptions oracle_options) {
  struct Case {
    const char* name;
    FaultInjection inject;
  };
  const Case cases[] = {
      {"schedule-off-by-one", FaultInjection::kScheduleOffByOne},
      {"route-delay-off-by-one", FaultInjection::kRouteDelayOffByOne},
  };
  constexpr std::uint64_t kMaxProbes = 64;
  constexpr std::size_t kMaxReproOps = 8;

  bool ok = true;
  for (const Case& c : cases) {
    oracle_options.inject = c.inject;
    bool found = false;
    for (std::uint64_t index = 0; index < kMaxProbes && !found; ++index) {
      const Scenario scenario =
          generate_scenario(seed, index, gen_options);
      const OracleReport report =
          run_differential_oracle(scenario, oracle_options);
      if (report.ok) continue;
      found = true;

      ShrinkStats stats;
      const Scenario repro = shrink_scenario(
          scenario,
          [&](const Scenario& candidate) {
            return !run_differential_oracle(candidate, oracle_options).ok;
          },
          &stats);
      const std::size_t ops = repro.graph.operation_count();

      // The minimal repro must still reproduce after a serialization
      // round trip: that is the property that makes corpus files
      // faithful regression tests.
      const Scenario replayed = parse_scenario(write_scenario(repro));
      const bool replays =
          !run_differential_oracle(replayed, oracle_options).ok;

      std::cout << "self-test " << c.name << ": detected at scenario "
                << scenario.name << ", shrunk " << scenario.graph.operation_count()
                << " -> " << ops << " op(s) (" << stats.attempts
                << " attempts), round-trip "
                << (replays ? "reproduces" : "LOST") << "\n";
      if (ops > kMaxReproOps) {
        std::cerr << "self-test " << c.name << ": FAILED, minimal repro "
                  << "has " << ops << " ops (> " << kMaxReproOps << ")\n";
        ok = false;
      }
      if (!replays) ok = false;
    }
    if (!found) {
      std::cerr << "self-test " << c.name << ": FAILED, no divergence in "
                << kMaxProbes << " scenarios\n";
      ok = false;
    }
  }
  std::cout << (ok ? "self-test passed" : "self-test FAILED") << "\n";
  return ok ? 0 : 1;
}

void write_json(const std::string& path, std::uint64_t seed,
                std::uint64_t count, const Totals& totals,
                double elapsed_s) {
  std::ofstream out(path);
  out << "{\n  \"fuzz\": {\n"
      << "    \"seed\": " << seed << ",\n"
      << "    \"requested\": " << count << ",\n"
      << "    \"executed\": " << totals.executed << ",\n"
      << "    \"corpus_replayed\": " << totals.corpus_replayed << ",\n"
      << "    \"divergences\": " << totals.divergences << ",\n"
      << "    \"degenerate\": " << totals.degenerate << ",\n"
      << "    \"non_converged\": " << totals.non_converged << ",\n"
      << "    \"operations\": " << totals.operations << ",\n"
      << "    \"transports\": " << totals.transports << ",\n"
      << "    \"max_fixpoint_rounds\": " << totals.max_fixpoint_rounds
      << ",\n"
      << "    \"elapsed_s\": " << elapsed_s << ",\n"
      << "    \"ok\": " << (totals.divergences == 0 ? "true" : "false")
      << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t count = 200;
  double time_budget_s = 0.0;
  bool shrink = false;
  bool self_test = false;
  std::string repro_dir = "repros";
  std::string corpus_dir;
  std::string json_out;
  std::string trace_out;
  GeneratorOptions gen_options;
  OracleOptions oracle_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--count") == 0 && i + 1 < argc) {
      count = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--time-budget") == 0 && i + 1 < argc) {
      time_budget_s = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--max-ops") == 0 && i + 1 < argc) {
      gen_options.max_operations =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--shrink") == 0) {
      shrink = true;
    } else if (std::strcmp(arg, "--repro-dir") == 0 && i + 1 < argc) {
      repro_dir = argv[++i];
    } else if (std::strcmp(arg, "--corpus") == 0 && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (std::strcmp(arg, "--inject") == 0 && i + 1 < argc) {
      const char* kind = argv[++i];
      if (std::strcmp(kind, "schedule") == 0) {
        oracle_options.inject = FaultInjection::kScheduleOffByOne;
      } else if (std::strcmp(kind, "route") == 0) {
        oracle_options.inject = FaultInjection::kRouteDelayOffByOne;
      } else {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(arg, "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      print_usage();
      return 2;
    }
  }
  if (gen_options.max_operations < gen_options.min_operations) {
    print_usage();
    return 2;
  }
  if (!trace_out.empty()) {
    trace::TraceRecorder::instance().set_enabled(true);
    trace::TraceRecorder::instance().set_current_thread_name(
        "fuzz-synth-main");
  }

  if (self_test) {
    return run_self_test(seed, gen_options, oracle_options);
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Totals totals;

  // Corpus replay first: committed repros are the cheapest regressions to
  // recheck and must never diverge again.
  if (!corpus_dir.empty()) {
    for (const auto& [file, scenario] : fbmb::load_corpus(corpus_dir)) {
      const OracleReport report =
          run_differential_oracle(scenario, oracle_options);
      tally(totals, report);
      ++totals.corpus_replayed;
      if (!report.ok) {
        report_divergence(scenario, report, oracle_options, shrink,
                          repro_dir);
      }
    }
    std::cout << "corpus: " << totals.corpus_replayed << " scenario(s) from "
              << corpus_dir << ", " << totals.divergences
              << " divergence(s)\n";
  }

  std::uint64_t generated = 0;
  for (std::uint64_t index = 0; index < count; ++index) {
    if (time_budget_s > 0.0 && elapsed() >= time_budget_s) break;
    const Scenario scenario = generate_scenario(seed, index, gen_options);
    const OracleReport report =
        run_differential_oracle(scenario, oracle_options);
    tally(totals, report);
    ++generated;
    if (!report.ok) {
      report_divergence(scenario, report, oracle_options, shrink, repro_dir);
    }
  }

  const double wall_s = elapsed();
  std::cout << "fuzz: seed " << seed << ", " << generated
            << " generated scenario(s) in " << wall_s << " s, "
            << totals.operations << " ops / " << totals.transports
            << " transports total, " << totals.degenerate
            << " degenerate, " << totals.non_converged
            << " non-converged, max fixpoint rounds "
            << totals.max_fixpoint_rounds << ", " << totals.divergences
            << " divergence(s)\n";

  if (!json_out.empty()) {
    write_json(json_out, seed, count, totals, wall_s);
  }
  if (!trace_out.empty()) {
    std::string error;
    if (!trace::write_chrome_trace_file(trace_out, &error)) {
      std::cerr << "trace-out: " << error << "\n";
    }
  }
  return totals.divergences == 0 ? 0 : 1;
}
