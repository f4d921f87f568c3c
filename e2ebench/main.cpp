// End-to-end benchmark of the msynth synthesis flow and service.
//
//   e2e_bench --workload table1_sweep|large_assays|service_warm
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   e2e_bench --self-test
//
// Prints a host block and a human-readable report, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics (from the
// benchmark's own spans around each layer's public call) with --trace 1.
// The library's own tracer (src/trace) stays off in both.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: e2e_bench --workload table1_sweep|large_assays|service_warm "
    "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
    "       e2e_bench --self-test\n";

bool optimized_build() {
#if defined(__OPTIMIZE__)
  const std::string type = E2E_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n%s", arg.c_str(), kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }

  // Routing's "still postponing after 20 rounds" warnings would flood the
  // report; errors still print.
  fbmb::Logger::instance().set_level(fbmb::LogLevel::kError);
  fbmb::trace::TraceRecorder::instance().set_enabled(false);

  if (self_test) return e2e::run_self_tests() == 0 ? 0 : 1;

  const bool flow = config.workload == "table1_sweep" ||
                    config.workload == "large_assays";
  if (!have_workload || (!flow && config.workload != "service_warm") ||
      !(config.seconds > 0.0)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::printf("host: nproc %ld, compiler %s, build type %s, workload %s, "
              "seed %llu, seconds %g, program tracer %s, benchmark spans "
              "%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), E2E_COMPILER, E2E_BUILD_TYPE,
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              fbmb::trace::enabled() ? "on" : "off",
              config.trace ? "on" : "off");
  if (!optimized_build()) {
    std::fprintf(stderr, "refusing to time a non-optimized build (%s)\n",
                 E2E_BUILD_TYPE);
    return 1;
  }

  e2e::Report report;
  try {
    report = flow ? e2e::run_flow_workload(config)
                  : e2e::run_service_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  for (const e2e::Metric& m : report.metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("correct %s: %ld of %ld jobs failed\n",
              report.failed == 0 ? "yes" : "no", report.failed,
              report.attempted);

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
