#include "runtime/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/result_io.hpp"
#include "util/rng.hpp"

namespace fbmb {
namespace {

SynthesisResult tiny_result(double completion) {
  SynthesisResult result;
  result.completion_time = completion;
  result.utilization = 0.5;
  return result;
}

Fingerprint key_of(std::uint64_t lo, std::uint64_t hi) {
  return Fingerprint{lo, hi};
}

/// A synthesized result with a schedule, a placement and a routing.
SynthesisResult pcr_result() {
  const auto bench = make_pcr();
  return synthesize_dcsa(bench.graph, Allocation(bench.allocation), bench.wash);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Fingerprint, EqualInputsHashEqual) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint a = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                           options, FlowPreset::kDcsa);
  const Fingerprint b = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                           options, FlowPreset::kDcsa);
  EXPECT_EQ(a, b);
}

TEST(Fingerprint, EveryInputFieldChangesTheHash) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint base = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                              options, FlowPreset::kDcsa);

  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, options,
                                     FlowPreset::kBaseline));

  SynthesisOptions seed = options;
  seed.placer.seed = 2;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, seed,
                                     FlowPreset::kDcsa));

  SynthesisOptions restarts = options;
  restarts.placer.restarts = 5;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash,
                                     restarts, FlowPreset::kDcsa));

  SynthesisOptions tc = options;
  tc.scheduler.transport_time = 4.0;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, tc,
                                     FlowPreset::kDcsa));

  WashModel wash = bench.wash;
  wash.set_override(1e-5, 3.0);
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, wash, options,
                                     FlowPreset::kDcsa));

  const Allocation bigger(AllocationSpec{4, 0, 0, 0});
  EXPECT_NE(base, fingerprint_inputs(bench.graph, bigger, bench.wash,
                                     options, FlowPreset::kDcsa));

  const auto other = make_ivd();
  EXPECT_NE(base, fingerprint_inputs(other.graph, alloc, bench.wash, options,
                                     FlowPreset::kDcsa));
}

TEST(Fingerprint, ExecutorHookIsNotPartOfTheKey) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint base = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                              options, FlowPreset::kDcsa);
  SynthesisOptions with_executor = options;
  with_executor.placer.restart_executor =
      [](std::vector<std::function<void()>>& tasks) {
        for (auto& task : tasks) task();
      };
  EXPECT_EQ(base, fingerprint_inputs(bench.graph, alloc, bench.wash,
                                     with_executor, FlowPreset::kDcsa));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string hex = fp.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  Fingerprint parsed;
  ASSERT_TRUE(Fingerprint::from_hex(hex, parsed));
  EXPECT_EQ(parsed, fp);
  EXPECT_FALSE(Fingerprint::from_hex("zz", parsed));
}

TEST(ResultCache, HitMissAndCounters) {
  ResultCache cache(4);
  const Fingerprint key = key_of(1, 1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(key, tiny_result(10.0));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->completion_time, 10.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, DistinctKeysDoNotCollide) {
  // Keys differing in only one word must be distinct entries.
  ResultCache cache(8);
  cache.insert(key_of(1, 2), tiny_result(1.0));
  cache.insert(key_of(1, 3), tiny_result(2.0));
  cache.insert(key_of(2, 2), tiny_result(3.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 2))->completion_time, 1.0);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 3))->completion_time, 2.0);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(2, 2))->completion_time, 3.0);
}

TEST(ResultCache, LruEvictionPrefersStaleEntries) {
  ResultCache cache(2);
  cache.insert(key_of(1, 0), tiny_result(1.0));
  cache.insert(key_of(2, 0), tiny_result(2.0));
  // Touch key 1 so key 2 is now least recently used.
  EXPECT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  cache.insert(key_of(3, 0), tiny_result(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, 0)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3, 0)).has_value());
}

TEST(ResultCache, OverwriteSameKeyKeepsSizeStable) {
  ResultCache cache(2);
  cache.insert(key_of(1, 0), tiny_result(1.0));
  cache.insert(key_of(1, 0), tiny_result(9.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 0))->completion_time, 9.0);
}

TEST(CachedResult, FindReturnsTheSameEntryOnEveryHit) {
  ResultCache cache(4);
  EXPECT_EQ(cache.find(key_of(1, 0)), nullptr);
  const std::shared_ptr<const CachedResult> stored =
      cache.insert(key_of(1, 0), tiny_result(1.0));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.find(key_of(1, 0)), stored);
  EXPECT_EQ(cache.find(key_of(1, 0)), stored);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CachedResult, JsonIsWrittenOnceAsTheWriterWritesIt) {
  ResultCache cache(4);
  const auto entry = cache.insert(key_of(1, 0), pcr_result());
  const std::string& first = entry->json();
  EXPECT_EQ(&entry->json(), &first);
  EXPECT_EQ(&cache.find(key_of(1, 0))->json(), &first);
  EXPECT_EQ(first, synthesis_result_to_json(entry->result));
}

TEST(CachedResult, EvictedOrOverwrittenEntryKeepsItsBytes) {
  ResultCache cache(1);
  // Evicted before anything asked for its bytes: they are written later,
  // from the result it still holds.
  const auto evicted = cache.insert(key_of(1, 0), tiny_result(1.0));
  cache.insert(key_of(2, 0), tiny_result(2.0));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(key_of(1, 0)), nullptr);
  EXPECT_EQ(evicted->result.completion_time, 1.0);
  EXPECT_EQ(evicted->json(), synthesis_result_to_json(tiny_result(1.0)));

  // Overwritten after its bytes were written: the holder reads the old
  // bytes, the cache serves the new entry.
  const auto old_entry = cache.find(key_of(2, 0));
  ASSERT_NE(old_entry, nullptr);
  const std::string& old_json = old_entry->json();
  const std::string old_copy = old_json;
  const auto new_entry = cache.insert(key_of(2, 0), tiny_result(3.0));
  EXPECT_NE(new_entry, old_entry);
  EXPECT_EQ(cache.find(key_of(2, 0)), new_entry);
  EXPECT_EQ(old_entry->result.completion_time, 2.0);
  EXPECT_EQ(&old_entry->json(), &old_json);
  EXPECT_EQ(old_entry->json(), old_copy);
  EXPECT_EQ(new_entry->json(), synthesis_result_to_json(tiny_result(3.0)));
}

TEST(CachedResult, RacingFirstReadsSeeIdenticalBytes) {
  ResultCache cache(4);
  cache.insert(key_of(1, 0), pcr_result());
  constexpr int kThreads = 8;
  std::vector<const std::string*> seen(kThreads, nullptr);
  std::vector<std::string> copies(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const std::shared_ptr<const CachedResult> hit = cache.find(key_of(1, 0));
      seen[t] = &hit->json();
      copies[t] = *seen[t];
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string want =
      synthesis_result_to_json(cache.find(key_of(1, 0))->result);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(copies[t], want) << "thread " << t;
  }
}

TEST(CachedResult, LookupCopiesTheFoundResult) {
  ResultCache cache(4);
  cache.insert(key_of(1, 0), pcr_result());
  const std::optional<SynthesisResult> copy = cache.lookup(key_of(1, 0));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, cache.find(key_of(1, 0))->result);
  EXPECT_FALSE(cache.lookup(key_of(2, 0)).has_value());
}

TEST(CachedResult, ServingEntriesDoesNotChangeTheSpill) {
  // Two caches with the same entries: one spills before anything is
  // served, the other after serving every entry (in insertion order, so
  // recency, and with it the spill's order, is unchanged).
  const SynthesisResult pcr = pcr_result();
  ResultCache unserved(4);
  ResultCache served(4);
  for (ResultCache* cache : {&unserved, &served}) {
    cache->insert(key_of(1, 0), pcr);
    cache->insert(key_of(2, 0), tiny_result(2.0));
  }
  std::vector<std::string> served_json;
  for (const Fingerprint& key : {key_of(1, 0), key_of(2, 0)}) {
    served_json.push_back(served.find(key)->json());
  }
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(unserved.save_json(dir + "msynth_spill_unserved.json"));
  ASSERT_TRUE(served.save_json(dir + "msynth_spill_served.json"));
  const std::string before = read_file(dir + "msynth_spill_unserved.json");
  for (const std::string& json : served_json) {
    EXPECT_NE(before.find("\"result\": " + json + "}"), std::string::npos);
  }
  EXPECT_EQ(read_file(dir + "msynth_spill_served.json"), before);

  // The unserved cache's own entries, served after its spill, spill again
  // to the same bytes.
  for (const Fingerprint& key : {key_of(1, 0), key_of(2, 0)}) {
    EXPECT_FALSE(unserved.find(key)->json().empty());
  }
  ASSERT_TRUE(unserved.save_json(dir + "msynth_spill_unserved.json"));
  EXPECT_EQ(read_file(dir + "msynth_spill_unserved.json"), before);
  std::remove((dir + "msynth_spill_unserved.json").c_str());
  std::remove((dir + "msynth_spill_served.json").c_str());
}

TEST(CachedResult, SpillRunsAlongsideHitsAndInserts) {
  // save_json writes outside the lock while other threads find, serve and
  // overwrite entries; every spill must still load whole.
  ResultCache cache(2);
  cache.insert(key_of(1, 0), tiny_result(1.0));
  const std::string path = ::testing::TempDir() + "msynth_spill_race.json";
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      cache.insert(key_of(2 + i % 3, 0), tiny_result(i));
      if (const auto hit = cache.find(key_of(1, 0))) hit->json();
    }
  });
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(cache.save_json(path));
  writer.join();
  ASSERT_TRUE(cache.save_json(path));
  ResultCache reloaded(2);
  EXPECT_EQ(reloaded.load_json(path), cache.size());
  std::remove(path.c_str());
}

TEST(ResultCache, SpillRoundTripsFullResultLosslessly) {
  // A real synthesized result — schedule, placement, routing — must
  // survive the JSON spill bit-identically.
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  const SynthesisResult original =
      synthesize_dcsa(bench.graph, alloc, bench.wash);

  SynthesisOptions options;
  const Fingerprint key = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                             options, FlowPreset::kDcsa);
  ResultCache cache(4);
  cache.insert(key, original);

  const std::string path = ::testing::TempDir() + "msynth_cache_spill.json";
  ASSERT_TRUE(cache.save_json(path));

  ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load_json(path), 1u);
  const auto restored = reloaded.lookup(key);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->completion_time, original.completion_time);
  EXPECT_EQ(restored->utilization, original.utilization);
  EXPECT_EQ(restored->channel_length_mm, original.channel_length_mm);
  EXPECT_EQ(restored->total_cache_time, original.total_cache_time);
  EXPECT_EQ(restored->channel_wash_time, original.channel_wash_time);
  EXPECT_EQ(restored->schedule.operations.size(),
            original.schedule.operations.size());
  EXPECT_EQ(restored->schedule.transports.size(),
            original.schedule.transports.size());
  EXPECT_EQ(restored->placement.size(), original.placement.size());
  ASSERT_EQ(restored->routing.paths.size(), original.routing.paths.size());
  for (std::size_t i = 0; i < original.routing.paths.size(); ++i) {
    EXPECT_EQ(restored->routing.paths[i].cells,
              original.routing.paths[i].cells) << "path " << i;
  }
  EXPECT_EQ(restored->routing.distinct_channel_edges(),
            original.routing.distinct_channel_edges());
  // The SA placer's search counters ride along in the spill.
  EXPECT_GT(original.place_stats.proposals, 0u);
  EXPECT_EQ(restored->place_stats.proposals, original.place_stats.proposals);
  EXPECT_EQ(restored->place_stats.accepts, original.place_stats.accepts);
  EXPECT_EQ(restored->place_stats.delta_evals,
            original.place_stats.delta_evals);
  EXPECT_EQ(restored->place_stats.full_evals,
            original.place_stats.full_evals);
  EXPECT_EQ(restored->place_stats.occupancy_probes,
            original.place_stats.occupancy_probes);
  // ... and so do the scheduler's.
  EXPECT_EQ(original.sched_stats.ops_scheduled,
            bench.graph.operation_count());
  EXPECT_EQ(restored->sched_stats.ops_scheduled,
            original.sched_stats.ops_scheduled);
  EXPECT_EQ(restored->sched_stats.binding_probes,
            original.sched_stats.binding_probes);
  EXPECT_EQ(restored->sched_stats.case1_bindings,
            original.sched_stats.case1_bindings);
  std::remove(path.c_str());
}

TEST(ResultIo, SchedStatsRoundTripAndBackwardCompat) {
  SynthesisResult result = tiny_result(42.0);
  result.sched_stats.ops_scheduled = 55;
  result.sched_stats.heap_pushes = 55;
  result.sched_stats.heap_pops = 55;
  result.sched_stats.binding_probes = 80;
  result.sched_stats.case1_bindings = 39;
  result.sched_stats.case2_bindings = 16;

  const std::string json = synthesis_result_to_json(result);
  EXPECT_NE(json.find("\"sched_stats\""), std::string::npos);
  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sched_stats.ops_scheduled, 55u);
  EXPECT_EQ(back->sched_stats.heap_pushes, 55u);
  EXPECT_EQ(back->sched_stats.heap_pops, 55u);
  EXPECT_EQ(back->sched_stats.binding_probes, 80u);
  EXPECT_EQ(back->sched_stats.case1_bindings, 39u);
  EXPECT_EQ(back->sched_stats.case2_bindings, 16u);

  // Spills written before the counters existed have no "sched_stats" key.
  // Such an entry could never hit (its fingerprint predates the current
  // hash), so the key is required and the document is malformed.
  SynthesisResult plain = tiny_result(7.0);
  std::string legacy = synthesis_result_to_json(plain);
  const std::size_t at = legacy.find("\"sched_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = legacy.find("}", at);
  ASSERT_NE(end, std::string::npos);
  legacy.erase(at, end - at + 3);
  ASSERT_EQ(legacy.find("sched_stats"), std::string::npos);
  EXPECT_FALSE(synthesis_result_from_json(legacy).has_value());
}

TEST(ResultIo, PlaceStatsRoundTripAndBackwardCompat) {
  SynthesisResult result = tiny_result(42.0);
  result.place_stats.proposals = 13200;
  result.place_stats.accepts = 5607;
  result.place_stats.delta_evals = 8001;
  result.place_stats.full_evals = 2;
  result.place_stats.occupancy_probes = 15433;

  const std::string json = synthesis_result_to_json(result);
  EXPECT_NE(json.find("\"place_stats\""), std::string::npos);
  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->place_stats.proposals, 13200u);
  EXPECT_EQ(back->place_stats.accepts, 5607u);
  EXPECT_EQ(back->place_stats.delta_evals, 8001u);
  EXPECT_EQ(back->place_stats.full_evals, 2u);
  EXPECT_EQ(back->place_stats.occupancy_probes, 15433u);

  // Spills written before the counters existed have no "place_stats" key.
  // Such an entry could never hit (its fingerprint predates the current
  // hash), so the key is required and the document is malformed.
  SynthesisResult plain = tiny_result(7.0);
  std::string legacy = synthesis_result_to_json(plain);
  const std::size_t at = legacy.find("\"place_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = legacy.find("}", at);
  ASSERT_NE(end, std::string::npos);
  // Remove `"place_stats": {...}, ` — the key through its closing brace
  // plus the trailing comma-space separator.
  legacy.erase(at, end - at + 3);
  ASSERT_EQ(legacy.find("place_stats"), std::string::npos);
  EXPECT_FALSE(synthesis_result_from_json(legacy).has_value());
}

TEST(ResultIo, FlowStatsRoundTripAndBackwardCompat) {
  SynthesisResult result = tiny_result(42.0);
  result.flow_stats.rounds = 3;
  result.flow_stats.transports_rerouted = 50;
  result.flow_stats.transports_reused = 31;
  result.flow_stats.cells_evicted = 412;
  result.place_stats.proposals = 13200;
  result.sched_stats.case1_bindings = 39;

  const std::string json = synthesis_result_to_json(result);
  EXPECT_NE(json.find("\"flow_stats\""), std::string::npos);
  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->flow_stats.rounds, 3u);
  EXPECT_EQ(back->flow_stats.transports_rerouted, 50u);
  EXPECT_EQ(back->flow_stats.transports_reused, 31u);
  EXPECT_EQ(back->flow_stats.cells_evicted, 412u);

  // Spills written while the parallel router existed carry four more
  // flow_stats keys, which the reader must skip without disturbing any
  // other counter.
  std::string with_legacy_keys = json;
  const std::size_t flow_at = with_legacy_keys.find("\"flow_stats\"");
  ASSERT_NE(flow_at, std::string::npos);
  const std::size_t flow_end = with_legacy_keys.find("}", flow_at);
  ASSERT_NE(flow_end, std::string::npos);
  with_legacy_keys.insert(flow_end,
                          ", \"speculated\": 29, \"spec_committed\": 11, "
                          "\"spec_mispredicted\": 4, \"spec_fallbacks\": 2");
  const auto legacy = synthesis_result_from_json(with_legacy_keys);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->completion_time, 42.0);
  EXPECT_EQ(legacy->flow_stats.rounds, 3u);
  EXPECT_EQ(legacy->flow_stats.transports_rerouted, 50u);
  EXPECT_EQ(legacy->flow_stats.transports_reused, 31u);
  EXPECT_EQ(legacy->flow_stats.cells_evicted, 412u);
  EXPECT_EQ(legacy->place_stats.proposals, 13200u);
  EXPECT_EQ(legacy->sched_stats.case1_bindings, 39u);
  EXPECT_EQ(synthesis_result_to_json(*legacy), json);

  // Spills written before the incremental fixpoint existed have no
  // "flow_stats" key. Such an entry could never hit (its fingerprint
  // predates the current hash), so the document is malformed.
  std::string without = synthesis_result_to_json(tiny_result(7.0));
  const std::size_t at = without.find("\"flow_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = without.find("}", at);
  ASSERT_NE(end, std::string::npos);
  // Remove `"flow_stats": {...}, ` — the key through its closing brace
  // plus the trailing comma-space separator.
  without.erase(at, end - at + 3);
  ASSERT_EQ(without.find("flow_stats"), std::string::npos);
  EXPECT_FALSE(synthesis_result_from_json(without).has_value());
}

TEST(ResultIo, RouteStatsObjectIsRequired) {
  SynthesisResult result = tiny_result(42.0);
  result.routing.stats.tasks_routed = 1;
  result.routing.stats.nodes_expanded = 2;
  result.routing.stats.heap_pushes = 3;
  result.routing.stats.feasibility_rejections = 4;
  result.routing.stats.postponement_steps = 5;
  result.routing.stats.distance_fields_built = 6;
  result.routing.stats.fixpoints_capped = 7;
  result.routing.conflict_postponements = 8;

  // Spills written before the router counters existed have no
  // "route_stats" object. Such an entry could never hit (its fingerprint
  // predates the current hash), so the document is malformed.
  ASSERT_TRUE(synthesis_result_from_json(synthesis_result_to_json(result))
                  .has_value());
  std::string legacy = synthesis_result_to_json(result);
  const std::size_t at = legacy.find("\"route_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = legacy.find("}", at);
  ASSERT_NE(end, std::string::npos);
  // Remove `"route_stats": {...}, ` — the key through its closing brace
  // plus the trailing comma-space separator.
  legacy.erase(at, end - at + 3);
  ASSERT_EQ(legacy.find("route_stats"), std::string::npos);
  EXPECT_FALSE(synthesis_result_from_json(legacy).has_value());
}

TEST(ResultIo, CounterObjectMissingAKeyIsRejected) {
  // Inside a counter object every counter is required, as the object
  // itself is.
  SynthesisResult result = tiny_result(42.0);
  result.place_stats.proposals = 13200;
  result.place_stats.accepts = 5607;
  std::string json = synthesis_result_to_json(result);
  ASSERT_TRUE(synthesis_result_from_json(json).has_value());
  const std::string accepts = "\"accepts\": 5607, ";
  const std::size_t at = json.find(accepts);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(json.find("\"place_stats\""), at);
  json.erase(at, accepts.size());
  EXPECT_FALSE(synthesis_result_from_json(json).has_value());
}

TEST(ResultIo, DoublesPrintExactlyAsPercent17g) {
  // Served bodies and spills must stay byte-identical across writers, so
  // every double is printed as %.17g prints it: a shortest round-trip
  // writer would print 0.1 where %.17g prints 0.10000000000000001.
  SynthesisResult result = tiny_result(1.0);
  result.routing.delays = {0.0, -0.0, 5e-324, DBL_MIN, DBL_MAX, 0.1,
                           1.0 / 3.0, 1e16, 1e17, 123456789.125};
  const std::size_t edge_cases = result.routing.delays.size();
  Rng rng(20260808);
  while (result.routing.delays.size() < edge_cases + 10000) {
    const double value = std::bit_cast<double>(rng.next());
    if (std::isfinite(value)) result.routing.delays.push_back(value);
  }
  std::string want;
  for (const double value : result.routing.delays) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!want.empty()) want += ',';
    want += buf;
  }

  const std::string json = synthesis_result_to_json(result);
  const std::size_t begin = json.find("\"delays\": [");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t first = begin + std::string("\"delays\": [").size();
  const std::size_t end = json.find(']', first);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(json.substr(first, end - first), want);

  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->routing.delays.size(), result.routing.delays.size());
  for (std::size_t i = 0; i < result.routing.delays.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back->routing.delays[i]),
              std::bit_cast<std::uint64_t>(result.routing.delays[i]))
        << "delay " << i << " = " << result.routing.delays[i];
  }
}

TEST(ResultCache, LoadRejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "msynth_cache_bad.json";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\": \"something else\"}", f);
    std::fclose(f);
  }
  ResultCache cache(4);
  EXPECT_EQ(cache.load_json(path), 0u);
  EXPECT_EQ(cache.load_json("/nonexistent/msynth.json"), 0u);
  std::remove(path.c_str());
}

TEST(ResultIo, ParserHandlesDocumentShapes) {
  const auto parsed = jsonio::parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\ny\"}");
  ASSERT_TRUE(parsed.has_value());
  const jsonio::Value* a = parsed->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[2].num, -300.0);
  const jsonio::Value* b = parsed->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->b);
  EXPECT_EQ(parsed->find("s")->str, "x\ny");
  EXPECT_FALSE(jsonio::parse("{\"unterminated\": ").has_value());
  EXPECT_FALSE(jsonio::parse("{} trailing").has_value());
}

}  // namespace
}  // namespace fbmb
