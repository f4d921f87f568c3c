// synth_server — the resident synthesis daemon (docs/SERVICE.md).
//
// Serves POST /synthesize, GET /healthz and GET /metrics until SIGTERM or
// SIGINT, then drains gracefully: in-flight jobs get --drain-ms to finish
// (stragglers are cancelled but still answered), the result cache is
// spilled to --cache-file, and the process exits 0.
//
//   ./synth_server --port 8080
//   ./synth_server --port 0 --port-file port.txt --cache-file cache.json
//
// --max-stall-ms enables the request "stall_ms" knob (load tests only;
// keep it 0 in real deployments).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "service/server.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host HOST          bind address (default 127.0.0.1)\n"
      << "  --port N             TCP port; 0 = kernel-assigned (default 0)\n"
      << "  --port-file PATH     write the bound port to PATH (for port 0)\n"
      << "  --threads N          synthesis worker threads (default: cores)\n"
      << "  --queue N            job queue capacity (default 1024)\n"
      << "  --max-connections N  concurrent connection cap (default 64)\n"
      << "  --drain-ms N         shutdown grace for in-flight jobs "
         "(default 2000)\n"
      << "  --max-stall-ms N     cap for the stall_ms test knob "
         "(default 0 = off)\n"
      << "  --cache-file PATH    load/spill the result cache here\n"
      << "  --trace-out PATH     enable tracing; write Chrome-trace JSON "
         "at shutdown\n";
}

bool parse_long(const char* text, long& out) {
  char* end = nullptr;
  out = std::strtol(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  fbmb::service::ServerOptions options;
  std::string port_file;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    long value = 0;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--cache-file" && has_value) {
      options.cache_spill_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (has_value && parse_long(argv[i + 1], value)) {
      ++i;
      if (arg == "--port" && value >= 0 && value <= 65535) {
        options.port = static_cast<std::uint16_t>(value);
      } else if (arg == "--threads" && value >= 0) {
        options.engine.threads = static_cast<std::size_t>(value);
      } else if (arg == "--queue" && value > 0) {
        options.engine.queue_capacity = static_cast<std::size_t>(value);
      } else if (arg == "--max-connections" && value > 0) {
        options.max_connections = static_cast<std::size_t>(value);
      } else if (arg == "--drain-ms" && value >= 0) {
        options.drain_budget_ms = static_cast<int>(value);
      } else if (arg == "--max-stall-ms" && value >= 0) {
        options.max_stall_ms = static_cast<int>(value);
      } else {
        std::cerr << "bad option/value: " << arg << " " << argv[i] << "\n";
        usage(argv[0]);
        return 2;
      }
    } else {
      std::cerr << "bad option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (!trace_out.empty()) {
    fbmb::trace::TraceRecorder::instance().set_enabled(true);
    fbmb::trace::TraceRecorder::instance().set_current_thread_name(
        "synth-server-main");
  }

  fbmb::service::SynthServer server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
  }
  std::cout << "synth_server listening on " << options.host << ":"
            << server.port() << std::endl;

  {
    fbmb::service::SignalDrain drain(server);
    server.wait_shutdown_requested();
    std::cout << "synth_server draining..." << std::endl;
    server.shutdown();
  }

  if (!trace_out.empty()) {
    std::string error;
    if (fbmb::trace::write_chrome_trace_file(trace_out, &error)) {
      std::cout << "trace written to " << trace_out << std::endl;
    } else {
      std::cerr << "trace-out: " << error << std::endl;
    }
  }

  std::cout << "synth_server stopped; final metrics:\n"
            << server.metrics_json() << std::endl;
  return 0;
}
