// The structured tracing subsystem (src/trace): lock-free per-thread
// rings, snapshot-while-writing, Chrome-trace export, and the end-to-end
// instrumentation contract.
//
// The recorder is process-global, so every test starts from clear() and
// leaves the recorder disabled. The tests pin:
//   * ring wraparound drops oldest-first and reports an exact `dropped`,
//   * 8 concurrent emitters + a snapshotting reader are race-free (this
//     binary carries the `runtime` label and runs under TSan),
//   * a snapshot taken mid-write contains only complete, untorn events
//     (the seqlock keep-window discards any slot a writer may have been
//     overwriting),
//   * exported Chrome JSON parses with the repo's own jsonio parser and
//     carries the documented ph/ts/dur/args schema,
//   * disabled tracing emits nothing and costs no events,
//   * trace ids nest via TraceIdScope and stamp every event, and
//   * the flow instrumentation: one traced multi-round
//     route_until_consistent run yields stage spans, one span per routing
//     round, and one replay or reroute instant per transport per round —
//     all sharing the ambient trace id.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/flow_core.hpp"
#include "place/sa_placer.hpp"
#include "runtime/result_io.hpp"
#include "schedule/list_scheduler.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

namespace fbmb {
namespace {

trace::TraceRecorder& recorder() { return trace::TraceRecorder::instance(); }

/// Fresh, enabled recorder for one test; disables and clears on exit.
class TraceEnv {
 public:
  TraceEnv() {
    recorder().clear();
    recorder().set_enabled(true);
  }
  ~TraceEnv() {
    recorder().set_enabled(false);
    recorder().clear();
  }
};

/// All events across all threads whose interned name equals `name`.
std::vector<trace::Event> events_named(const trace::TraceSnapshot& snap,
                                       const std::string& name) {
  std::vector<trace::Event> out;
  for (const trace::ThreadTrace& thread : snap.threads) {
    for (const trace::Event& event : thread.events) {
      if (event.name < snap.names.size() &&
          snap.names[event.name] == name) {
        out.push_back(event);
      }
    }
  }
  return out;
}

TEST(TraceRing, WraparoundDropsOldestFirstWithExactCount) {
  TraceEnv env;
  constexpr std::uint64_t kOverflow = 100;
  for (std::uint64_t i = 0; i < trace::kRingCapacity + kOverflow; ++i) {
    TRACE_COUNTER("test", "wrap", static_cast<double>(i));
  }
  const trace::TraceSnapshot snap = recorder().snapshot();
  std::vector<trace::Event> kept = events_named(snap, "wrap");
  ASSERT_EQ(kept.size(), trace::kRingCapacity);
  // Oldest-first eviction: the survivors are exactly the newest
  // kRingCapacity values, still in emission order.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].value, static_cast<double>(kOverflow + i));
  }
  std::uint64_t dropped = 0;
  for (const trace::ThreadTrace& thread : snap.threads) {
    dropped += thread.dropped;
  }
  EXPECT_EQ(dropped, kOverflow);
}

TEST(TraceRing, ConcurrentEmittersAreRaceFreeAndLossAccounted) {
  TraceEnv env;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  // Real barrier at both ends: every writer must be alive before the
  // first emit (so each acquires its own ring rather than recycling an
  // already-exited sibling's lane) and stay alive until the last one
  // finishes (so no lane is recycled mid-test).
  std::atomic<int> ready{0};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &ready, &done] {
      recorder().set_current_thread_name("trace-test-w" + std::to_string(t));
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TRACE_COUNTER("test", "flood", 42.0);
      }
      done.fetch_add(1);
      while (done.load() < kThreads) std::this_thread::yield();
    });
  }
  // Snapshot continuously while the writers are mid-flood: the reader
  // must never block them, tear an event, or trip TSan.
  for (int i = 0; i < 50; ++i) {
    const trace::TraceSnapshot snap = recorder().snapshot();
    for (const trace::Event& event : events_named(snap, "flood")) {
      EXPECT_EQ(event.value, 42.0);  // untorn payload
      EXPECT_EQ(event.type, trace::EventType::kCounter);
    }
  }
  for (std::thread& w : writers) w.join();

  const trace::TraceSnapshot snap = recorder().snapshot();
  int writer_rings = 0;
  for (const trace::ThreadTrace& thread : snap.threads) {
    if (thread.name.rfind("trace-test-w", 0) != 0) continue;
    ++writer_rings;
    // Nothing silently lost: kept + dropped covers every emit.
    EXPECT_EQ(thread.events.size() + thread.dropped, kPerThread);
  }
  EXPECT_EQ(writer_rings, kThreads);
}

TEST(TraceRing, SnapshotDuringWritingSeesOnlyCompleteEvents) {
  TraceEnv env;
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      // Spans are recorded once, at scope exit — a snapshot can never
      // observe a half-open span, only complete (ts, dur) pairs.
      trace::SpanGuard span("test", "busy");
      TRACE_COUNTER("test", "tick", static_cast<double>(i % 7));
      ++i;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const trace::TraceSnapshot snap = recorder().snapshot();
    for (const trace::ThreadTrace& thread : snap.threads) {
      for (const trace::Event& event : thread.events) {
        ASSERT_LT(event.name, snap.names.size());
        ASSERT_LT(event.category, snap.categories.size());
        if (event.type == trace::EventType::kCounter &&
            snap.names[event.name] == "tick") {
          EXPECT_GE(event.value, 0.0);
          EXPECT_LT(event.value, 7.0);
        }
      }
    }
  }
  stop.store(true);
  writer.join();
}

TEST(TraceExport, ChromeJsonParsesWithJsonioAndKeepsSchema) {
  TraceEnv env;
  trace::TraceIdScope scope(recorder().next_trace_id());
  {
    trace::SpanGuard span("stage", "unit_span");
    TRACE_INSTANT("stage", "unit_instant");
  }
  TRACE_COUNTER("stage", "unit_counter", 3.5);

  const std::string json = trace::to_chrome_json(recorder().snapshot());
  const std::optional<jsonio::Value> root = jsonio::parse(json);
  ASSERT_TRUE(root.has_value()) << json.substr(0, 200);
  ASSERT_EQ(root->kind, jsonio::Value::Kind::kObject);
  const jsonio::Value* display = root->find("displayTimeUnit");
  ASSERT_NE(display, nullptr);
  EXPECT_EQ(display->str, "ms");
  const jsonio::Value* events = root->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, jsonio::Value::Kind::kArray);

  bool saw_span = false;
  bool saw_instant = false;
  bool saw_counter = false;
  const std::string want_id = std::to_string(trace::current_trace_id());
  for (const jsonio::Value& event : events->array) {
    const jsonio::Value* name = event.find("name");
    const jsonio::Value* ph = event.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->str == "unit_span") {
      saw_span = true;
      EXPECT_EQ(ph->str, "X");
      ASSERT_NE(event.find("dur"), nullptr);
      ASSERT_NE(event.find("ts"), nullptr);
      EXPECT_EQ(event.find("cat")->str, "stage");
      EXPECT_EQ(event.find("args")->find("trace_id")->str, want_id);
    } else if (name->str == "unit_instant") {
      saw_instant = true;
      EXPECT_EQ(ph->str, "i");
      EXPECT_EQ(event.find("s")->str, "t");
    } else if (name->str == "unit_counter") {
      saw_counter = true;
      EXPECT_EQ(ph->str, "C");
      EXPECT_EQ(event.find("args")->find("unit_counter")->num, 3.5);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST(TraceExport, FilterAndCapOptions) {
  TraceEnv env;
  {
    trace::TraceIdScope keep(1001);
    for (int i = 0; i < 10; ++i) TRACE_INSTANT("test", "keep_me");
  }
  {
    trace::TraceIdScope discard(1002);
    TRACE_INSTANT("test", "drop_me");
  }
  trace::ChromeExportOptions options;
  options.trace_id_filter = 1001;
  options.max_events = 4;
  const std::string json =
      trace::to_chrome_json(recorder().snapshot(), options);
  const std::optional<jsonio::Value> root = jsonio::parse(json);
  ASSERT_TRUE(root.has_value());
  std::size_t kept = 0;
  for (const jsonio::Value& event : root->find("traceEvents")->array) {
    const jsonio::Value* name = event.find("name");
    if (name == nullptr) continue;  // thread_name metadata rows
    EXPECT_NE(name->str, "drop_me");
    if (name->str == "keep_me") ++kept;
  }
  EXPECT_EQ(kept, 4u);
  EXPECT_TRUE(root->find("otherData")->find("truncated")->b);
}

TEST(TraceRecorder, DisabledEmitsNothing) {
  recorder().clear();
  recorder().set_enabled(false);
  const std::uint64_t before = recorder().total_events();
  {
    TRACE_SPAN("test", "ghost");
    TRACE_INSTANT("test", "ghost");
    TRACE_COUNTER("test", "ghost", 1.0);
  }
  EXPECT_EQ(recorder().total_events(), before);
  EXPECT_EQ(events_named(recorder().snapshot(), "ghost").size(), 0u);
}

TEST(TraceRecorder, TraceIdScopesNestAndRestore) {
  EXPECT_EQ(trace::current_trace_id(), 0u);
  {
    trace::TraceIdScope outer(5);
    EXPECT_EQ(trace::current_trace_id(), 5u);
    {
      trace::TraceIdScope inner(9);
      EXPECT_EQ(trace::current_trace_id(), 9u);
    }
    EXPECT_EQ(trace::current_trace_id(), 5u);
  }
  EXPECT_EQ(trace::current_trace_id(), 0u);
}

TEST(TraceRecorder, ForceCountOverridesDisabled) {
  recorder().clear();
  recorder().set_enabled(false);
  EXPECT_FALSE(trace::enabled());
  recorder().push_force();
  EXPECT_TRUE(trace::enabled());
  recorder().push_force();
  recorder().pop_force();
  EXPECT_TRUE(trace::enabled());  // still one force outstanding
  recorder().pop_force();
  EXPECT_FALSE(trace::enabled());
  recorder().clear();
}

/// A traced multi-round fixpoint produces nested stage spans, one
/// route_round span per round, and one replay instant per reused
/// transport and one reroute instant per re-routed one — all under one
/// trace id.
TEST(TraceFlow, TracedFixpointYieldsStagesRoundsAndReplays) {
  TraceEnv env;
  const std::uint64_t id = recorder().next_trace_id();
  trace::TraceIdScope scope(id);

  // Synthetic2/dcsa converges in 3 routing rounds — enough repetition to
  // exercise the retime spans and the per-round counters.
  const Benchmark bench = make_synthetic(2);
  Allocation alloc(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  Schedule schedule = schedule_bioassay(bench.graph, alloc, bench.wash,
                                        sched);
  const ChipSpec chip = derive_grid(ChipSpec{}, allocation_area(alloc, 1));
  PlacerOptions placer;
  placer.restarts = 1;
  const Placement placement =
      place_components(alloc, schedule, bench.wash, chip, placer);

  StageTimes stages;
  FlowStats flow;
  route_until_consistent(schedule, bench.graph, alloc, chip, placement,
                         bench.wash, RouterOptions{}, stages, {}, &flow);
  ASSERT_GT(flow.rounds, 1u);
  ASSERT_GT(flow.transports_reused, 0u);

  const trace::TraceSnapshot snap = recorder().snapshot();
  const auto count_with_id = [&](const std::string& name) {
    std::size_t n = 0;
    for (const trace::Event& event : events_named(snap, name)) {
      if (event.trace_id == id) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_with_id("fixpoint"), 1u);
  EXPECT_EQ(count_with_id("grid_build"), 1u);
  EXPECT_EQ(count_with_id("route_round"),
            static_cast<std::size_t>(flow.rounds));
  EXPECT_GE(count_with_id("retime"), 1u);
  EXPECT_EQ(count_with_id("replay"),
            static_cast<std::size_t>(flow.transports_reused));
  EXPECT_EQ(count_with_id("reroute"),
            static_cast<std::size_t>(flow.transports_rerouted));
}

}  // namespace
}  // namespace fbmb
