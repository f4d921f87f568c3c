// The resident synthesis service (docs/SERVICE.md).
//
// SynthServer owns a SynthesisEngine and serves it over HTTP/1.1:
//
//   POST /synthesize  run (or cache-hit) one synthesis job
//   GET  /healthz     liveness + drain state
//   GET  /metrics     service counters + engine telemetry JSON
//
// Architecture: one listener thread accepts connections and hands each to
// its own handler thread (a dynamic pool bounded by max_connections —
// beyond the cap connections are answered 503 and closed). Handlers parse
// requests with the bounded HTTP parser (400/413 on bad input) and answer
// a cache hit themselves (SynthesisEngine::find_cached). Misses pass two
// admission layers: the connection cap and the engine pool's bounded
// queue via ThreadPool::try_submit — a full queue answers 429 +
// Retry-After instead of queueing unboundedly. Each queued job carries a
// CancellationToken armed with the request's deadline (timeout_ms -> 504)
// and cancelled early when the client hangs up or the server drains
// (503); an input the allocation cannot schedule or route is a 422.
// Results come straight from the shared engine, so they are bit-identical
// to direct library calls and warm the same content-addressed cache
// across requests.
//
// Graceful drain: request_shutdown() (or SignalDrain on SIGTERM/SIGINT)
// flips the server into draining mode — the listener stops accepting,
// keep-alive connections close after their in-flight response, and
// shutdown() waits up to drain_budget_ms for in-flight jobs before
// cancelling their tokens; every accepted request is still answered with
// a definite status. Finally the result cache is spilled to
// cache_spill_path (when configured) so a restarted server starts warm.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "runtime/synthesis_engine.hpp"
#include "service/http.hpp"
#include "service/metrics.hpp"
#include "service/socket.hpp"

namespace fbmb::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (see SynthServer::port)
  std::size_t max_connections = 64;
  SynthesisEngineOptions engine;
  HttpLimits http;
  int drain_budget_ms = 2000;  ///< grace for in-flight jobs on shutdown
  int idle_timeout_ms = 10000;  ///< close keep-alive connections idle this long
  /// Upper bound for the request "stall_ms" load-testing knob; 0 (the
  /// default) disables it entirely.
  int max_stall_ms = 0;
  /// When non-empty: the result cache is loaded from here on start() and
  /// spilled back on shutdown().
  std::string cache_spill_path;
};

class SynthServer {
 public:
  explicit SynthServer(ServerOptions options = {});

  /// Drains and joins (shutdown()) if still running.
  ~SynthServer();

  SynthServer(const SynthServer&) = delete;
  SynthServer& operator=(const SynthServer&) = delete;

  /// Binds, loads the cache spill (if configured) and spawns the
  /// listener. Throws std::runtime_error when the bind fails.
  void start();

  /// The bound port (after start()); useful with port 0.
  std::uint16_t port() const { return listener_.port(); }

  /// Thread-safe, non-blocking: flips the server into draining mode and
  /// wakes wait_shutdown_requested(). Called by SignalDrain.
  void request_shutdown();

  /// Blocks until request_shutdown() (typically: a signal) fires.
  void wait_shutdown_requested();

  /// Graceful drain: stop accepting, give in-flight jobs drain_budget_ms,
  /// cancel stragglers, join every thread, spill the cache. Idempotent.
  void shutdown();

  bool draining() const { return draining_.load(); }

  SynthesisEngine& engine() { return engine_; }
  ServiceMetrics& metrics() { return metrics_; }

  /// The full /metrics document.
  std::string metrics_json() const;

 private:
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void listener_loop();
  void connection_loop(Socket conn, ConnSlot* slot);
  HttpResponse dispatch(const HttpRequest& request, Socket& conn);
  HttpResponse handle_synthesize(const HttpRequest& request, Socket& conn);
  void reap_finished_connections(bool join_all);
  void stall_cancellably(int stall_ms, CancellationToken& token) const;
  /// Requests admitted and not yet answered: active_tokens_.size().
  std::size_t active_requests() const;

  ServerOptions options_;
  SynthesisEngine engine_;
  ServiceMetrics metrics_;
  ServerSocket listener_;
  std::thread listener_thread_;

  std::mutex conns_mutex_;
  std::list<std::unique_ptr<ConnSlot>> conns_;
  std::atomic<std::size_t> active_connections_{0};

  /// Tokens of requests currently waiting on a synthesis future; a
  /// draining server cancels them all once the budget is spent.
  mutable std::mutex tokens_mutex_;
  std::set<std::shared_ptr<CancellationToken>> active_tokens_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_accept_{false};
  bool started_ = false;
  bool stopped_ = false;
};

/// Installs SIGTERM/SIGINT handlers (self-pipe; async-signal-safe) that
/// call server.request_shutdown() from a watcher thread. The destructor
/// restores the previous handlers. One instance at a time.
class SignalDrain {
 public:
  explicit SignalDrain(SynthServer& server);
  ~SignalDrain();

  SignalDrain(const SignalDrain&) = delete;
  SignalDrain& operator=(const SignalDrain&) = delete;

 private:
  std::thread watcher_;
};

}  // namespace fbmb::service
