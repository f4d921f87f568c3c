#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace fbmb::service {

namespace {

/// Upper bounds (ms) of every bucket but the last, which is open-ended:
/// 0.01 ms, then each 1.6 times the one before, so bucket 38 ends near
/// 10 minutes. A bucket holds the samples above the bound before it and
/// at most its own.
constexpr std::array<double, LatencyHistogram::kBuckets - 1> kBoundsMs = [] {
  std::array<double, LatencyHistogram::kBuckets - 1> bounds{};
  double bound = 0.01;
  for (double& b : bounds) {
    b = bound;
    bound *= 1.6;
  }
  return bounds;
}();

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const double ms = seconds * 1e3;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(kBoundsMs.begin(), kBoundsMs.end(), ms) -
      kBoundsMs.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns,
                                        std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  snap.max_seconds =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) * 1e-9;
  for (int i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

double LatencyHistogram::percentile_ms(const Snapshot& snap, double p) {
  if (snap.count == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(snap.count)));
  const double max_ms = snap.max_seconds * 1e3;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBoundsMs.size(); ++i) {
    cumulative += snap.buckets[i];
    // No sample lies above the max, so neither does any percentile.
    if (cumulative >= rank) return std::min(kBoundsMs[i], max_ms);
  }
  return max_ms;  // in the open-ended top bucket
}

std::string LatencyHistogram::to_json(const Snapshot& snap) {
  std::ostringstream os;
  const double mean_ms =
      snap.count == 0
          ? 0.0
          : snap.sum_seconds * 1e3 / static_cast<double>(snap.count);
  os << "{\"count\": " << snap.count << ", \"mean_ms\": " << number(mean_ms)
     << ", \"p50_ms\": " << number(percentile_ms(snap, 50.0))
     << ", \"p90_ms\": " << number(percentile_ms(snap, 90.0))
     << ", \"p99_ms\": " << number(percentile_ms(snap, 99.0))
     << ", \"max_ms\": " << number(snap.max_seconds * 1e3) << "}";
  return os.str();
}

void ServiceMetrics::count_response(int status) {
  switch (status) {
    case 200: responses_ok.fetch_add(1); break;
    case 400: responses_bad_request.fetch_add(1); break;
    case 404:
    case 405: responses_not_found.fetch_add(1); break;
    case 413: responses_too_large.fetch_add(1); break;
    case 422: responses_unprocessable.fetch_add(1); break;
    case 429: responses_rejected.fetch_add(1); break;
    case 503: responses_cancelled.fetch_add(1); break;
    case 504: responses_timed_out.fetch_add(1); break;
    default: responses_error.fetch_add(1); break;
  }
}

std::string ServiceMetrics::to_json(std::uint64_t in_flight,
                                    std::uint64_t queue_depth,
                                    bool draining) const {
  std::ostringstream os;
  os << "{\"connections\": {\"accepted\": " << connections_accepted.load()
     << ", \"rejected\": " << connections_rejected.load()
     << "}, \"requests\": {\"received\": " << requests_received.load()
     << ", \"in_flight\": " << in_flight
     << ", \"queue_depth\": " << queue_depth
     << "}, \"responses\": {\"ok\": " << responses_ok.load()
     << ", \"bad_request\": " << responses_bad_request.load()
     << ", \"not_found\": " << responses_not_found.load()
     << ", \"too_large\": " << responses_too_large.load()
     << ", \"unprocessable\": " << responses_unprocessable.load()
     << ", \"rejected\": " << responses_rejected.load()
     << ", \"error\": " << responses_error.load()
     << ", \"cancelled\": " << responses_cancelled.load()
     << ", \"timed_out\": " << responses_timed_out.load()
     << "}, \"endpoints\": {\"synthesize\": "
     << LatencyHistogram::to_json(synthesize_latency.snapshot())
     << ", \"healthz\": " << LatencyHistogram::to_json(healthz_latency.snapshot())
     << ", \"metrics\": " << LatencyHistogram::to_json(metrics_latency.snapshot())
     << ", \"trace\": " << LatencyHistogram::to_json(trace_latency.snapshot())
     << "}, \"draining\": " << (draining ? "true" : "false") << "}";
  return os.str();
}

}  // namespace fbmb::service
