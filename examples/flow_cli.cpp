// Command-line front end for the synthesis flows.
//
//   flow_cli --benchmark <name>  any extended-suite name (PCR, IVD, CPA,
//                                Synthetic1..4, ProteinSplit2/3,
//                                GlucosePanel) or PaperExample, in any case
//   flow_cli --assay <file.assay> [--alloc M,H,F,D]
//   options: --flow ours|ba|both (default both)
//            --seed <n>          SA placement seed (default 1)
//            --svg <out.svg>     write the DCSA layout rendering
//            --dot <out.dot>     write the sequencing graph
//            --schedule          print the full schedule timeline
//
// Example:
//   build/examples/flow_cli --benchmark CPA --svg cpa.svg --schedule

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "core/comparison.hpp"
#include "graph/assay_parser.hpp"
#include "report/svg.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;

int usage() {
  std::cerr << "usage: flow_cli --benchmark <name> | --assay <file> "
               "[--alloc M,H,F,D]\n"
               "       [--flow ours|ba|both] [--seed n] [--svg out.svg] "
               "[--dot out.dot] [--schedule]\n"
               "benchmark names are case-insensitive: PCR, IVD, CPA, "
               "Synthetic1..4,\n"
               "ProteinSplit2, ProteinSplit3, GlucosePanel, PaperExample\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Benchmark> bench;
  std::string flow = "both";
  std::string svg_path, dot_path, assay_path, alloc_arg;
  std::uint64_t seed = 1;
  bool print_schedule = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--benchmark") {
      const char* v = next();
      if (!v) return usage();
      bench = find_benchmark(v);
      if (!bench) {
        std::cerr << "unknown benchmark '" << v << "'\n";
        return 2;
      }
    } else if (arg == "--assay") {
      const char* v = next();
      if (!v) return usage();
      assay_path = v;
    } else if (arg == "--alloc") {
      const char* v = next();
      if (!v) return usage();
      alloc_arg = v;
    } else if (arg == "--flow") {
      const char* v = next();
      if (!v) return usage();
      flow = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage();
      seed = std::stoull(v);
    } else if (arg == "--svg") {
      const char* v = next();
      if (!v) return usage();
      svg_path = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return usage();
      dot_path = v;
    } else if (arg == "--schedule") {
      print_schedule = true;
    } else {
      return usage();
    }
  }

  if (!assay_path.empty()) {
    std::ifstream in(assay_path);
    if (!in) {
      std::cerr << "cannot open '" << assay_path << "'\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      ParsedAssay parsed = parse_assay(text.str());
      Benchmark b;
      b.name = assay_path;
      b.graph = std::move(parsed.graph);
      b.wash = std::move(parsed.wash);
      if (!alloc_arg.empty()) {
        const auto parts = split(alloc_arg, ',');
        if (parts.size() != 4) return usage();
        b.allocation = {std::stoi(parts[0]), std::stoi(parts[1]),
                        std::stoi(parts[2]), std::stoi(parts[3])};
      } else if (parsed.has_allocation) {
        b.allocation = parsed.allocation;
      } else {
        std::cerr << "no allocation: add 'allocate' to the file or pass "
                     "--alloc\n";
        return 2;
      }
      bench = std::move(b);
    } catch (const AssayParseError& e) {
      std::cerr << assay_path << ": " << e.what() << '\n';
      return 1;
    }
  }
  if (!bench) return usage();

  const Allocation alloc(bench->allocation);
  SynthesisOptions options;
  options.placer.seed = seed;

  if (!dot_path.empty()) {
    std::ofstream(dot_path) << bench->graph.to_dot();
    std::cout << "wrote " << dot_path << '\n';
  }

  try {
    if (flow == "both") {
      const ComparisonRow row = compare_flows(bench->name, bench->graph,
                                              alloc, bench->wash, options);
      std::cout << bench->name << " (" << bench->graph.operation_count()
                << " ops, " << bench->allocation.to_string() << ")\n"
                << "  ours: " << row.ours.summary() << '\n'
                << "  BA:   " << row.baseline.summary() << '\n'
                << "  improvements: exec "
                << format_double(row.execution_improvement_pct(), 1)
                << " %, utilization "
                << format_double(row.utilization_improvement_pct(), 1)
                << " %, channel length "
                << format_double(row.channel_length_improvement_pct(), 1)
                << " %\n";
      if (print_schedule) {
        std::cout << "\nDCSA schedule:\n"
                  << row.ours.schedule.to_string(bench->graph);
      }
      if (!svg_path.empty()) {
        std::ofstream(svg_path) << render_layout_svg(
            alloc, row.ours.placement, row.ours.chip, row.ours.routing);
        std::cout << "wrote " << svg_path << '\n';
      }
    } else {
      const SynthesisResult result =
          flow == "ba" ? synthesize_baseline(bench->graph, alloc,
                                             bench->wash, options)
                       : synthesize_dcsa(bench->graph, alloc, bench->wash,
                                         options);
      std::cout << bench->name << ": " << result.summary() << '\n';
      if (print_schedule) {
        std::cout << result.schedule.to_string(bench->graph);
      }
      if (!svg_path.empty()) {
        std::ofstream(svg_path) << render_layout_svg(
            alloc, result.placement, result.chip, result.routing);
        std::cout << "wrote " << svg_path << '\n';
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "synthesis failed: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
