#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <utility>

#include "route/router.hpp"
#include "schedule/list_scheduler.hpp"
#include "service/protocol.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

namespace fbmb::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Inline per-request traces are bounded so a "trace": true response stays
/// a few hundred KB even on a long flow; the full firehose is GET /trace.
constexpr std::size_t kMaxInlineTraceEvents = 4096;

/// Pairs push_force/pop_force across every exit path of a traced request.
class ForcedTrace {
 public:
  explicit ForcedTrace(bool on) : on_(on) {
    if (on_) trace::TraceRecorder::instance().push_force();
  }
  ~ForcedTrace() {
    if (on_) trace::TraceRecorder::instance().pop_force();
  }
  ForcedTrace(const ForcedTrace&) = delete;
  ForcedTrace& operator=(const ForcedTrace&) = delete;

 private:
  bool on_;
};

HttpResponse make_error(int status, const std::string& message,
                        const std::string& stage = {}) {
  HttpResponse response;
  response.status = status;
  response.body = error_body(message, stage);
  if (status == 429 || status == 503) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

/// Sends the head and the body in one stream without joining them.
bool send_response(Socket& conn, const HttpResponse& response,
                   bool keep_alive, int timeout_ms = 30000) {
  return conn.send_all(response.head(keep_alive), response.body, timeout_ms);
}

/// The 200 body. When the request asked for its trace, the request's own
/// events go inline, bounded; snapshotting here means the enclosing
/// request/respond spans (still open) are not included.
std::string ok_body(const JobOutcome& outcome, bool want_trace) {
  TRACE_SPAN("service", "respond");
  std::string inline_trace;
  if (want_trace) {
    trace::ChromeExportOptions export_options;
    export_options.trace_id_filter = outcome.trace_id;
    export_options.max_events = kMaxInlineTraceEvents;
    inline_trace = trace::to_chrome_json(
        trace::TraceRecorder::instance().snapshot(), export_options);
  }
  return synthesize_body(outcome, inline_trace);
}

}  // namespace

SynthServer::SynthServer(ServerOptions options)
    : options_(std::move(options)), engine_(options_.engine) {}

SynthServer::~SynthServer() { shutdown(); }

void SynthServer::start() {
  if (started_) return;
  const std::string error = listener_.listen(options_.host, options_.port);
  if (!error.empty()) {
    throw std::runtime_error("synth_server: " + error);
  }
  if (!options_.cache_spill_path.empty()) {
    // Best effort: a missing or stale spill file just means a cold start.
    engine_.cache().load_json(options_.cache_spill_path);
  }
  started_ = true;
  listener_thread_ = std::thread([this] { listener_loop(); });
}

void SynthServer::request_shutdown() {
  draining_.store(true);
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void SynthServer::wait_shutdown_requested() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void SynthServer::shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  draining_.store(true);
  stop_accept_.store(true);
  if (listener_thread_.joinable()) listener_thread_.join();
  listener_.close();

  // Give in-flight jobs the drain budget to finish on their own.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_budget_ms);
  while (Clock::now() < deadline) {
    if (active_connections_.load() == 0 && active_requests() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Budget spent: cancel whatever is still running. The jobs stop at the
  // next stage boundary, their futures settle, and every waiting handler
  // still sends a definite response (503).
  {
    std::lock_guard<std::mutex> lock(tokens_mutex_);
    for (const auto& token : active_tokens_) token->cancel();
  }
  reap_finished_connections(/*join_all=*/true);

  if (!options_.cache_spill_path.empty()) {
    engine_.cache().save_json(options_.cache_spill_path);
  }
}

std::size_t SynthServer::active_requests() const {
  std::lock_guard<std::mutex> lock(tokens_mutex_);
  return active_tokens_.size();
}

std::string SynthServer::metrics_json() const {
  std::string out = "{\"service\": ";
  out += metrics_.to_json(active_requests(), engine_.pool().pending(),
                          draining_.load());
  out += ", \"engine\": ";
  out += engine_.totals_json();
  out += "}";
  return out;
}

void SynthServer::listener_loop() {
  while (!stop_accept_.load()) {
    std::optional<Socket> conn = listener_.accept(/*timeout_ms=*/100);
    reap_finished_connections(/*join_all=*/false);
    if (!conn) continue;
    if (draining_.load()) {
      send_response(*conn, make_error(503, "server is draining"),
                    /*keep_alive=*/false, /*timeout_ms=*/1000);
      continue;
    }
    if (active_connections_.load() >= options_.max_connections) {
      metrics_.connections_rejected.fetch_add(1);
      metrics_.count_response(503);
      send_response(*conn, make_error(503, "connection limit reached"),
                    /*keep_alive=*/false, /*timeout_ms=*/1000);
      continue;
    }
    metrics_.connections_accepted.fetch_add(1);
    TRACE_INSTANT("service", "accept");
    active_connections_.fetch_add(1);
    auto slot = std::make_unique<ConnSlot>();
    ConnSlot* raw = slot.get();
    raw->thread = std::thread([this, raw, c = std::move(*conn)]() mutable {
      connection_loop(std::move(c), raw);
    });
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(std::move(slot));
  }
}

void SynthServer::connection_loop(Socket conn, ConnSlot* slot) {
  HttpRequestParser parser(options_.http);
  char buffer[4096];
  int idle_ms = 0;
  bool mid_request = false;

  while (true) {
    if (parser.status() == ParseStatus::kNeedMore) {
      // A draining server closes idle keep-alive connections right away
      // but lets a request already on the wire finish arriving.
      if (draining_.load() && !mid_request) break;
      std::size_t received = 0;
      const IoStatus io =
          conn.read_some(buffer, sizeof(buffer), /*timeout_ms=*/100,
                         received);
      if (io == IoStatus::kEof || io == IoStatus::kError) break;
      if (io == IoStatus::kTimeout) {
        idle_ms += 100;
        if (idle_ms >= options_.idle_timeout_ms) break;
        continue;
      }
      idle_ms = 0;
      if (received > 0) mid_request = true;
      parser.feed(buffer, received);
    }

    const ParseStatus status = parser.status();
    if (status == ParseStatus::kNeedMore) continue;

    HttpResponse response;
    bool keep_alive = false;
    if (status == ParseStatus::kDone) {
      const HttpRequest& request = parser.request();
      keep_alive = request.keep_alive() && !draining_.load();
      response = dispatch(request, conn);
    } else if (status == ParseStatus::kTooLarge) {
      response = make_error(413, parser.error());
    } else {
      response = make_error(400, parser.error());
    }
    metrics_.count_response(response.status);
    if (!send_response(conn, response, keep_alive)) break;
    if (!keep_alive) break;
    parser.reset();
    mid_request = parser.status() != ParseStatus::kNeedMore;
  }

  conn.close();
  active_connections_.fetch_sub(1);
  slot->done.store(true);
}

HttpResponse SynthServer::dispatch(const HttpRequest& request, Socket& conn) {
  metrics_.requests_received.fetch_add(1);
  const auto start = Clock::now();
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return make_error(405, "method not allowed; use GET");
    }
    HttpResponse response;
    response.body = draining_.load()
                        ? "{\"status\": \"draining\"}"
                        : "{\"status\": \"ok\"}";
    metrics_.healthz_latency.record(seconds_since(start));
    return response;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return make_error(405, "method not allowed; use GET");
    }
    HttpResponse response;
    response.body = metrics_json();
    metrics_.metrics_latency.record(seconds_since(start));
    return response;
  }
  if (request.target == "/trace") {
    if (request.method != "GET") {
      return make_error(405, "method not allowed; use GET");
    }
    // Everything currently buffered, across all threads and requests, as
    // a Chrome-trace document (open in Perfetto / chrome://tracing).
    // Snapshotting never blocks writers, so this is safe under load.
    HttpResponse response;
    response.body =
        trace::to_chrome_json(trace::TraceRecorder::instance().snapshot());
    metrics_.trace_latency.record(seconds_since(start));
    return response;
  }
  if (request.target == "/synthesize") {
    if (request.method != "POST") {
      return make_error(405, "method not allowed; use POST");
    }
    HttpResponse response = handle_synthesize(request, conn);
    metrics_.synthesize_latency.record(seconds_since(start));
    return response;
  }
  return make_error(404, "no such endpoint: " + request.target);
}

HttpResponse SynthServer::handle_synthesize(const HttpRequest& request,
                                            Socket& conn) {
  if (draining_.load()) {
    return make_error(503, "server is draining");
  }
  std::string error;
  std::optional<SynthesizeRequest> parsed;
  {
    TRACE_SPAN("service", "parse");
    parsed = parse_synthesize_request(request.body, error);
  }
  if (!parsed) {
    return make_error(400, error);
  }

  // Tracing: "trace": true force-enables the recorder for this request's
  // lifetime (ForcedTrace pairs the pop across every exit path). When the
  // recorder is on — forced or via --trace-out — the request gets its own
  // trace id, stamped on every event it causes here and on pool workers.
  ForcedTrace forced(parsed->trace);
  std::uint64_t trace_id = 0;
  if (trace::enabled()) {
    trace_id = trace::TraceRecorder::instance().next_trace_id();
    parsed->job.options.trace_id = trace_id;
  }
  trace::TraceIdScope trace_scope(trace_id);
  TRACE_SPAN("service", "request");

  const int stall_ms =
      std::min(parsed->stall_ms, options_.max_stall_ms);
  const bool want_trace = parsed->trace;

  // The hit path: a cached input is answered here, on the connection
  // thread, with no queue, no token and no deadline check. A stalled
  // request always queues, because the stall exists to hold a worker.
  if (stall_ms == 0) {
    if (std::optional<JobOutcome> hit = engine_.find_cached(parsed->job)) {
      HttpResponse response;
      response.body = ok_body(*hit, want_trace);
      return response;
    }
  }

  auto token = std::make_shared<CancellationToken>();
  if (parsed->timeout_ms > 0.0) {
    // parse_synthesize_request keeps timeout_ms * 1e6 below 2^63.
    token->set_timeout(std::chrono::nanoseconds(
        static_cast<std::int64_t>(parsed->timeout_ms * 1e6)));
  }
  parsed->job.cancel = token;

  // Admission control: a full engine queue rejects the request *now*
  // (429 + Retry-After) instead of parking the handler on a blocking
  // submit. Rejection has no side effects, so the client can retry. The
  // queued job looks in the cache again when it runs, so a miss queued
  // behind an identical request is answered from the entry that one
  // stored.
  auto admit = [&] {
    TRACE_SPAN("service", "admit");
    return engine_.pool().try_submit(
        [this, req = std::move(*parsed), stall_ms, token]() -> JobOutcome {
          if (stall_ms > 0) stall_cancellably(stall_ms, *token);
          return engine_.run_job(req.job);
        });
  };
  auto future = admit();
  if (!future) {
    TRACE_INSTANT("service", "reject");
    return make_error(429, "synthesis queue is full, retry later");
  }

  {
    std::lock_guard<std::mutex> lock(tokens_mutex_);
    active_tokens_.insert(token);
  }

  // Wait for the job, watching the client: a peer hangup cancels the job
  // (no point finishing work nobody will read) but we still wait for the
  // future to settle so the engine is never abandoned mid-job.
  {
    TRACE_SPAN("service", "synthesize");
    while (future->wait_for(std::chrono::milliseconds(50)) !=
           std::future_status::ready) {
      if (!token->cancelled() && conn.peer_hung_up()) token->cancel();
    }
  }

  HttpResponse response;
  try {
    response.body = ok_body(future->get(), want_trace);
  } catch (const SynthesisCancelled& e) {
    const bool deadline =
        e.reason() == SynthesisCancelled::Reason::kDeadline;
    response = make_error(deadline ? 504 : 503, e.what(), e.stage());
  } catch (const SchedulingError& e) {
    // The input, not the server, is at fault: the allocation cannot
    // schedule or route it.
    response = make_error(422, e.what(), "schedule");
  } catch (const RoutingError& e) {
    response = make_error(422, e.what(), "route");
  } catch (const std::exception& e) {
    response = make_error(500, e.what());
  }

  {
    std::lock_guard<std::mutex> lock(tokens_mutex_);
    active_tokens_.erase(token);
  }
  return response;
}

void SynthServer::reap_finished_connections(bool join_all) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    ConnSlot& slot = **it;
    if (join_all || slot.done.load()) {
      if (slot.thread.joinable()) slot.thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void SynthServer::stall_cancellably(int stall_ms,
                                    CancellationToken& token) const {
  const auto until = Clock::now() + std::chrono::milliseconds(stall_ms);
  while (Clock::now() < until) {
    token.throw_if_cancelled("stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

namespace {

// Self-pipe plumbing: the signal handler only write()s one byte (async-
// signal-safe); the watcher thread does the real work. File-scope state
// because sigaction handlers cannot capture.
int g_signal_pipe[2] = {-1, -1};
struct sigaction g_prev_term;
struct sigaction g_prev_int;

void drain_signal_handler(int /*signum*/) {
  const char byte = 's';
  // The pipe is wide enough for any realistic signal burst; a full pipe
  // just means the wake-up is already pending.
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

SignalDrain::SignalDrain(SynthServer& server) {
  if (pipe(g_signal_pipe) != 0) {
    throw std::runtime_error("SignalDrain: pipe() failed");
  }
  struct sigaction action = {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &action, &g_prev_term);
  sigaction(SIGINT, &action, &g_prev_int);

  watcher_ = std::thread([&server] {
    char byte = 0;
    // Blocks until a signal writes the pipe or the destructor closes it.
    while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.request_shutdown();
  });
}

SignalDrain::~SignalDrain() {
  sigaction(SIGTERM, &g_prev_term, nullptr);
  sigaction(SIGINT, &g_prev_int, nullptr);
  // Closing the write end makes the watcher's read() return 0.
  close(g_signal_pipe[1]);
  if (watcher_.joinable()) watcher_.join();
  close(g_signal_pipe[0]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
}

}  // namespace fbmb::service
