#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "route/grid.hpp"
#include "route/validator.hpp"
#include "runtime/result_io.hpp"
#include "schedule/validator.hpp"
#include "sim/chip_simulator.hpp"

namespace e2e {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> samples, double p, std::size_t* beyond) {
  if (samples.empty()) {
    if (beyond) *beyond = 0;
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (beyond) *beyond = n - rank;
  return samples[rank - 1];
}

std::string strip_run_telemetry(std::string json) {
  // Same rule as bench/service_load: drop ", \"cpu_seconds\": ..." up to
  // ", \"stats\"" (cpu_seconds + stage_seconds), and the speculation
  // counters from ", \"speculated\":" to the end of the flow_stats object.
  for (std::size_t at = json.find(", \"cpu_seconds\":"); at != std::string::npos;
       at = json.find(", \"cpu_seconds\":", at + 1)) {
    const std::size_t end = json.find(", \"stats\"", at);
    if (end == std::string::npos) break;
    json.erase(at, end - at);
  }
  for (std::size_t at = json.find(", \"speculated\":"); at != std::string::npos;
       at = json.find(", \"speculated\":", at + 1)) {
    const std::size_t end = json.find('}', at);
    if (end == std::string::npos) break;
    json.erase(at, end - at);
  }
  return json;
}

std::string result_identity_json(const fbmb::SynthesisResult& result) {
  return strip_run_telemetry(fbmb::synthesis_result_to_json(result));
}

std::string check_result(const fbmb::SequencingGraph& graph,
                         const fbmb::Allocation& allocation,
                         const fbmb::WashModel& wash,
                         const fbmb::SynthesisResult& result) {
  for (const std::string& v :
       fbmb::validate_schedule(result.schedule, graph, allocation, wash)) {
    return "schedule validator: " + v;
  }
  const fbmb::RoutingGrid fresh(result.chip, allocation, result.placement);
  for (const std::string& v : fbmb::validate_routing(
           result.routing, result.schedule, fresh, wash)) {
    return "routing validator: " + v;
  }
  const bool converged =
      std::all_of(result.routing.delays.begin(), result.routing.delays.end(),
                  [](double d) { return d == 0.0; });
  if (!converged) return {};
  const fbmb::SimResult sim =
      fbmb::simulate_chip(graph, allocation, wash, result);
  if (!sim.violations.empty()) return "chip simulator: " + sim.violations[0];
  if (std::abs(sim.stats.completion_time - result.schedule.completion_time) >
      1e-6) {
    return "chip simulator: completion time disagrees with the schedule";
  }
  return {};
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(const char* layer, const char* name, int parent, int job) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = parent;
  span.job = job;
  span.start_ns = now_ns();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open_run = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open_run = true;
    }
    if (open_run) covered += run_end - run_start;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> SpanLog::layer_self_seconds() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i];
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", s.name, s.layer,
                  static_cast<double>(s.start_ns - epoch) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.job, i,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void add_latency_metrics(Report& report, const std::vector<double>& ms) {
  std::size_t beyond50 = 0;
  std::size_t beyond90 = 0;
  const double p50 = percentile(ms, 0.50, &beyond50);
  const double p90 = percentile(ms, 0.90, &beyond90);
  report.add("latency_p50_ms", p50, "ms");
  report.add("latency_p90_ms", p90, "ms");
  report.line("latency samples " + std::to_string(ms.size()) +
              ", beyond p50 " + std::to_string(beyond50) + ", beyond p90 " +
              std::to_string(beyond90));
}

void TimedJobs::add_quality(const fbmb::SynthesisResult& result) {
  ++quality_jobs;
  completion_s += result.completion_time;
  channel_mm += result.channel_length_mm;
  wash_s += result.channel_wash_time;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void add_end_to_end_metrics(Report& report, double setup_s,
                            const TimedJobs& timed) {
  const auto jobs = static_cast<double>(timed.latency_ms.size());
  const auto quality = static_cast<double>(timed.quality_jobs);
  report.add("setup_s", setup_s, "s");
  report.add("jobs_per_s", ratio(jobs, timed.wall_s), "1/s");
  add_latency_metrics(report, timed.latency_ms);
  report.add("cpu_ms_per_job", ratio(timed.cpu_s * 1e3, jobs), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("completion_s_mean", ratio(timed.completion_s, quality), "s");
  report.add("channel_mm_mean", ratio(timed.channel_mm, quality), "mm");
  report.add("wash_s_mean", ratio(timed.wash_s, quality), "s");
}

void add_layer_metrics(Report& report, const LayerMetrics& m) {
  report.add("place.self_ms", m.place_self_ms, "ms");
  report.add("place.restart_wait_ms", m.place_restart_wait_ms, "ms");
  report.add("place.proposals", m.place_proposals, "count");
  report.add("place.accept_frac", m.place_accept_frac, "frac");
  report.add("core.fixpoint_ms", m.core_fixpoint_ms, "ms");
  report.add("core.rounds", m.core_rounds, "count");
  report.add("core.capped_frac", m.core_capped_frac, "frac");
  report.add("route.self_ms", m.route_self_ms, "ms");
  report.add("route.grid_build_ms", m.route_grid_build_ms, "ms");
  report.add("route.reuse_frac", m.route_reuse_frac, "frac");
  report.add("route.nodes_expanded", m.route_nodes_expanded, "count");
  report.add("route.rejections", m.route_rejections, "count");
  report.add("route.postpone_steps", m.route_postpone_steps, "count");
  report.add("schedule.self_ms", m.schedule_self_ms, "ms");
  report.add("schedule.retime_ms", m.schedule_retime_ms, "ms");
  report.add("schedule.case1_frac", m.schedule_case1_frac, "frac");
  report.add("runtime.fingerprint_us", m.runtime_fingerprint_us, "us");
  report.add("runtime.cache_lookup_us", m.runtime_cache_lookup_us, "us");
  report.add("runtime.cache_insert_us", m.runtime_cache_insert_us, "us");
  report.add("runtime.hit_frac", m.runtime_hit_frac, "frac");
  report.add("runtime.overhead_ms", m.runtime_overhead_ms, "ms");
  report.add("service.roundtrip_ms", m.service_roundtrip_ms, "ms");
  report.add("service.engine_ms", m.service_engine_ms, "ms");
  report.add("service.parse_us", m.service_parse_us, "us");
  report.add("service.body_us", m.service_body_us, "us");
  report.add("service.http_ms", m.service_http_ms, "ms");
  report.add("service.response_kb", m.service_response_kb, "KB");
  report.add("trace.overhead_frac", m.trace_overhead_frac, "frac");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool setup_due(std::size_t done, std::size_t repeats, std::size_t job,
               std::size_t jobs) {
  return done < repeats && job >= done * jobs / repeats;
}

}  // namespace e2e
