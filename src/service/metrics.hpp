// Service-level observability: request/response counters and a lock-free
// request-latency histogram, layered on top of the engine's Telemetry.
//
// Counters are plain atomics so connection handlers record concurrently
// without locking. The histogram uses fixed geometric buckets (factor 1.6
// from 0.01 ms), so a percentile is a bucket's upper bound, at most 1.6×
// the true value and never above the exact max; the load generator
// measures exact client-side percentiles separately.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace fbmb::service {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  void record(double seconds);
  Snapshot snapshot() const;

  /// Estimated percentile in ms (p in [0,100]): the upper bound of the
  /// bucket holding it, clamped to the max, which is exact.
  static double percentile_ms(const Snapshot& snap, double p);

  /// {"count": N, "mean_ms": ..., "p50_ms": ..., "p90_ms": ...,
  ///  "p99_ms": ..., "max_ms": ...}
  static std::string to_json(const Snapshot& snap);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// One instance per server; every field is monotonic.
struct ServiceMetrics {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};  ///< over the cap
  std::atomic<std::uint64_t> requests_received{0};

  std::atomic<std::uint64_t> responses_ok{0};            ///< 200
  std::atomic<std::uint64_t> responses_bad_request{0};   ///< 400
  std::atomic<std::uint64_t> responses_not_found{0};     ///< 404 / 405
  std::atomic<std::uint64_t> responses_too_large{0};     ///< 413
  std::atomic<std::uint64_t> responses_unprocessable{0}; ///< 422
  std::atomic<std::uint64_t> responses_rejected{0};      ///< 429
  std::atomic<std::uint64_t> responses_error{0};         ///< 500
  std::atomic<std::uint64_t> responses_cancelled{0};     ///< 503
  std::atomic<std::uint64_t> responses_timed_out{0};     ///< 504

  /// Per-endpoint handler latency (dispatch entry to response ready).
  LatencyHistogram synthesize_latency;
  LatencyHistogram healthz_latency;
  LatencyHistogram metrics_latency;
  LatencyHistogram trace_latency;

  /// Buckets a just-sent response status into the counters above.
  void count_response(int status);

  /// The "service" JSON object (schema in docs/SERVICE.md). Requests in
  /// flight, queue depth and draining are owned by the server and its
  /// pool and injected here.
  std::string to_json(std::uint64_t in_flight, std::uint64_t queue_depth,
                      bool draining) const;
};

}  // namespace fbmb::service
