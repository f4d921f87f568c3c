// SchedulerCore vs the frozen reference list scheduler.
//
// The flat-array rewrite of Algorithm 1 (heap ready set, CSR share slots,
// per-type candidate lists) must be a pure optimization: for every paper
// benchmark and both binding policies, the produced Schedule must be
// bit-identical to schedule_bioassay_reference — same bindings, same
// start/end times, same transports (departures, deadlines, evictions),
// same wash windows, same completion time. Stats are telemetry and
// excluded by design (the reference keeps none).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "oracle/reference_scheduler.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/scheduler_core.hpp"
#include "schedule/validator.hpp"

namespace fbmb {
namespace {

/// Decision sequence replaying `schedule` in its original scheduling order
/// (start time ascending, op id breaking ties): a valid topological order
/// because every dependency adds positive duration + transport slack.
std::vector<ScheduleDecision> decisions_of(const Schedule& schedule) {
  std::vector<ScheduledOperation> sorted = schedule.operations;
  std::sort(sorted.begin(), sorted.end(),
            [](const ScheduledOperation& a, const ScheduledOperation& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.op.value < b.op.value;
            });
  std::vector<ScheduleDecision> decisions;
  decisions.reserve(sorted.size());
  for (const auto& so : sorted) decisions.push_back({so.op, so.component});
  return decisions;
}

void run_benchmark(const Benchmark& bench, BindingPolicy policy) {
  const Allocation alloc(bench.allocation);
  SchedulerOptions opts;
  opts.policy = policy;
  opts.refine_storage = policy == BindingPolicy::kDcsa;

  SchedStats stats;
  const Schedule core =
      schedule_bioassay(bench.graph, alloc, bench.wash, opts, &stats);
  const Schedule ref =
      schedule_bioassay_reference(bench.graph, alloc, bench.wash, opts);

  EXPECT_TRUE(core == ref)
      << bench.name << ": core diverged from reference\ncore:\n"
      << core.to_string(bench.graph) << "reference:\n"
      << ref.to_string(bench.graph);
  const auto violations = validate_schedule(core, bench.graph, alloc, bench.wash);
  EXPECT_TRUE(violations.empty())
      << bench.name << ": " << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations.front());

  // Counters describe exactly one full pass over the graph.
  const auto n = static_cast<std::uint64_t>(bench.graph.operation_count());
  EXPECT_EQ(stats.ops_scheduled, n);
  EXPECT_EQ(stats.heap_pushes, n);
  EXPECT_EQ(stats.heap_pops, n);
  EXPECT_EQ(stats.case1_bindings + stats.case2_bindings, n);
  EXPECT_GT(stats.binding_probes, 0u);
  if (policy == BindingPolicy::kBaseline) {
    EXPECT_EQ(stats.case1_bindings, 0u);  // BA never takes Case I
  }

  // The replay timing engine must agree with the reference replay too.
  const auto decisions = decisions_of(core);
  const Schedule replayed =
      replay_schedule(bench.graph, alloc, bench.wash, opts, decisions);
  const Schedule replayed_ref = replay_schedule_reference(
      bench.graph, alloc, bench.wash, opts, decisions);
  EXPECT_TRUE(replayed == replayed_ref)
      << bench.name << ": replay diverged from reference replay";
}

void run_benchmark(const Benchmark& bench) {
  {
    SCOPED_TRACE(bench.name + "/dcsa");
    run_benchmark(bench, BindingPolicy::kDcsa);
  }
  {
    SCOPED_TRACE(bench.name + "/baseline");
    run_benchmark(bench, BindingPolicy::kBaseline);
  }
}

TEST(SchedulerEquivalence, Pcr) { run_benchmark(make_pcr()); }
TEST(SchedulerEquivalence, Ivd) { run_benchmark(make_ivd()); }
TEST(SchedulerEquivalence, Cpa) { run_benchmark(make_cpa()); }
TEST(SchedulerEquivalence, Synthetic1) { run_benchmark(make_synthetic(1)); }
TEST(SchedulerEquivalence, Synthetic2) { run_benchmark(make_synthetic(2)); }
TEST(SchedulerEquivalence, Synthetic3) { run_benchmark(make_synthetic(3)); }
TEST(SchedulerEquivalence, Synthetic4) { run_benchmark(make_synthetic(4)); }

TEST(SchedulerEquivalence, PaperExampleAndExtendedAssays) {
  run_benchmark(make_paper_example());
  run_benchmark(make_glucose_panel());
  run_benchmark(make_protein_split(2));
}

}  // namespace
}  // namespace fbmb
