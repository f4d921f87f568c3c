// Shared pieces of the end-to-end benchmark: clocks, the percentile rule,
// the in-memory span log and its self-time rule, result comparison, and
// the report every workload fills in.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesis.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// Process user+sys CPU seconds (all threads).
double process_cpu_seconds();

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
/// sorted samples. `beyond` receives how many samples lie above that rank.
/// Empty input gives 0 with beyond = 0.
double percentile(std::vector<double> samples, double p, std::size_t* beyond);

/// synthesis_result_to_json without the fields that describe the run
/// rather than the result: cpu_seconds, stage_seconds and the flow_stats
/// speculation counters (docs/SERVICE.md). Two results are bit-identical
/// when these strings are equal.
std::string result_identity_json(const fbmb::SynthesisResult& result);
/// The same stripping, applied to an already serialized result.
std::string strip_run_telemetry(std::string json);

/// Validators on every result; the chip simulator (with its completion
/// time agreement) only where the fixpoint converged, i.e. every routing
/// delay is zero. Returns the first violation, or empty.
std::string check_result(const fbmb::SequencingGraph& graph,
                         const fbmb::Allocation& allocation,
                         const fbmb::WashModel& wash,
                         const fbmb::SynthesisResult& result);

/// One timed interval of the benchmark's own trace. Spans of one job share
/// `job`; `parent` indexes the span that caused this one (-1 for a root).
struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int job = -1;
};

std::int64_t now_ns();

/// Spans kept in memory for the whole run and written out at the end.
/// Appends happen on the job's own thread; spans recorded on pool threads
/// are collected by the caller and added with add().
class SpanLog {
 public:
  /// Opens a span and returns its index; close() sets its end.
  int open(const char* layer, const char* name, int parent, int job);
  void close(int index);
  int add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Per span: its duration minus the part of it covered by the union of
  /// its children's intervals (children may overlap, e.g. parallel SA
  /// restarts, so their union is subtracted, not their sum).
  std::vector<double> self_seconds() const;

  /// Sum of self time per layer.
  std::map<std::string, double> layer_self_seconds() const;

  /// Chrome trace-event JSON (complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One end-to-end or per-layer metric as printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports.
struct Report {
  std::vector<std::string> lines;  ///< human-readable report lines
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void fail(const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
};

/// Closed-loop latency summary: p50/p90 (nearest rank), sample counts.
void add_latency_metrics(Report& report, const std::vector<double>& ms);

/// What an untraced run accumulates over its timed jobs.
struct TimedJobs {
  std::vector<double> latency_ms;  ///< one per timed job
  double wall_s = 0.0;             ///< summed wall of the timed jobs
  double cpu_s = 0.0;              ///< process CPU over the same intervals
  long quality_jobs = 0;           ///< jobs whose result passed the gate
  double completion_s = 0.0, channel_mm = 0.0, wash_s = 0.0;  ///< sums

  void add_quality(const fbmb::SynthesisResult& result);
};

/// The end-to-end metrics, in BENCHMARK.json's order.
void add_end_to_end_metrics(Report& report, double setup_s,
                            const TimedJobs& timed);

/// The per-layer metrics of a traced run, per job unless a fraction. A
/// layer the workload does not run stays 0.
struct LayerMetrics {
  double place_self_ms = 0.0, place_restart_wait_ms = 0.0,
         place_proposals = 0.0, place_accept_frac = 0.0;
  double core_fixpoint_ms = 0.0, core_rounds = 0.0, core_capped_frac = 0.0;
  double route_self_ms = 0.0, route_grid_build_ms = 0.0,
         route_reuse_frac = 0.0, route_nodes_expanded = 0.0,
         route_rejections = 0.0, route_postpone_steps = 0.0;
  double schedule_self_ms = 0.0, schedule_retime_ms = 0.0,
         schedule_case1_frac = 0.0;
  double runtime_fingerprint_us = 0.0, runtime_cache_lookup_us = 0.0,
         runtime_cache_insert_us = 0.0, runtime_hit_frac = 0.0,
         runtime_overhead_ms = 0.0;
  double service_roundtrip_ms = 0.0, service_engine_ms = 0.0,
         service_parse_us = 0.0, service_body_us = 0.0,
         service_http_ms = 0.0, service_response_kb = 0.0;
  double trace_overhead_frac = 0.0;
};

void add_layer_metrics(Report& report, const LayerMetrics& m);

/// num / den, or 0 when den is 0.
double ratio(double num, double den);

/// Median of a small sample (set-up repetitions).
double median(std::vector<double> values);

/// Whether another set-up repetition is due before timed job `job` of
/// `jobs`, `done` of `repeats` having run. The first runs before the timed
/// jobs; the rest are spread evenly over them, so the reported median does
/// not rest on one moment of a shared host's speed, which drifts over
/// seconds to minutes.
bool setup_due(std::size_t done, std::size_t repeats, std::size_t job,
               std::size_t jobs);

}  // namespace e2e
