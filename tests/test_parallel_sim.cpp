// Thread-count bit-identity of full scenario runs (the PR 7 parallel-DES
// contract, docs/determinism.md): with the shard decomposition pinned,
// sim_threads is pure execution — every RunResult field, down to exact
// doubles, must match between 1 thread and 4 threads. Runs under TSan in
// tier-1 (CMakePresets.json `tsan-determinism` preset, label `psim`).
//
// sim_shards is pinned explicitly in every comparison: it is a MODEL
// parameter (spatial decomposition + per-shard RNG streams), and the
// 0-auto rule derives DIFFERENT values for sim_threads=1 (1 shard) vs
// sim_threads=4 (population-scaled) — comparing those would compare two
// different deterministic schedules, not two executions of one schedule.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "graph/metrics.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"

// ThreadSanitizer multiplies this suite's cost ~15-30x (worse when the
// host has fewer cores than sim_threads), so the TSan build runs shorter
// horizons: same populations, same shard decompositions, same 1-vs-N
// comparison — only the simulated window shrinks.
#if defined(__SANITIZE_THREAD__)
#define P2P_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P2P_TSAN_BUILD 1
#endif
#endif
#ifndef P2P_TSAN_BUILD
#define P2P_TSAN_BUILD 0
#endif

namespace {

constexpr double kTownDuration = P2P_TSAN_BUILD ? 150.0 : 400.0;
constexpr double kTownSampleInterval = P2P_TSAN_BUILD ? 50.0 : 150.0;
constexpr double kCrowdDuration = P2P_TSAN_BUILD ? 15.0 : 40.0;
constexpr double kCrowdStagger = P2P_TSAN_BUILD ? 5.0 : 10.0;
constexpr double kCrowdSampleInterval = P2P_TSAN_BUILD ? 7.0 : 20.0;

using namespace p2p;
using scenario::FileRankStats;
using scenario::Parameters;
using scenario::RunResult;

void expect_metrics_identical(const graph::SmallWorldMetrics& a,
                              const graph::SmallWorldMetrics& b,
                              const char* what) {
  EXPECT_EQ(a.clustering, b.clustering) << what;
  EXPECT_EQ(a.path_length, b.path_length) << what;
  EXPECT_EQ(a.mean_degree, b.mean_degree) << what;
  EXPECT_EQ(a.vertices, b.vertices) << what;
  EXPECT_EQ(a.edges, b.edges) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.largest_component, b.largest_component) << what;
  EXPECT_EQ(a.connected_pair_fraction, b.connected_pair_fraction) << what;
  EXPECT_EQ(a.smallworld_index, b.smallworld_index) << what;
}

void expect_rank_identical(const FileRankStats& a, const FileRankStats& b,
                           std::size_t rank) {
  EXPECT_EQ(a.requests, b.requests) << "rank " << rank;
  EXPECT_EQ(a.answered, b.answered) << "rank " << rank;
  EXPECT_EQ(a.answers_total, b.answers_total) << "rank " << rank;
  EXPECT_EQ(a.sum_min_physical, b.sum_min_physical) << "rank " << rank;
  EXPECT_EQ(a.physical_samples, b.physical_samples) << "rank " << rank;
  EXPECT_EQ(a.sum_min_p2p, b.sum_min_p2p) << "rank " << rank;
  EXPECT_EQ(a.p2p_samples, b.p2p_samples) << "rank " << rank;
}

// Exact (==, not NEAR) comparison of everything a run reports. Any drift
// here means the event history itself diverged between thread counts.
void expect_run_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_members, b.num_members);

  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t m = 0; m < a.counters.size(); ++m) {
    EXPECT_EQ(a.counters[m].received, b.counters[m].received) << "member " << m;
    EXPECT_EQ(a.counters[m].sent, b.counters[m].sent) << "member " << m;
  }

  ASSERT_EQ(a.per_file.size(), b.per_file.size());
  for (std::size_t r = 0; r < a.per_file.size(); ++r) {
    expect_rank_identical(a.per_file[r], b.per_file[r], r + 1);
  }

  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.energy_consumed_j, b.energy_consumed_j);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);

  EXPECT_EQ(a.routing_control_messages, b.routing_control_messages);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.data_dropped, b.data_dropped);

  EXPECT_EQ(a.payload_acquires, b.payload_acquires);
  EXPECT_EQ(a.payload_slab_allocs, b.payload_slab_allocs);
  EXPECT_EQ(a.payload_peak_live, b.payload_peak_live);

  EXPECT_EQ(a.net_memory_bytes, b.net_memory_bytes);
  EXPECT_EQ(a.routing_memory_bytes, b.routing_memory_bytes);
  EXPECT_EQ(a.servent_memory_bytes, b.servent_memory_bytes);

  EXPECT_EQ(a.churn_deaths, b.churn_deaths);
  EXPECT_EQ(a.churn_recoveries, b.churn_recoveries);
  EXPECT_EQ(a.link_blackouts, b.link_blackouts);
  EXPECT_EQ(a.loss_bursts, b.loss_bursts);
  EXPECT_EQ(a.overlay_disrupted_s, b.overlay_disrupted_s);
  EXPECT_EQ(a.overlay_repairs, b.overlay_repairs);
  EXPECT_EQ(a.mean_repair_time_s, b.mean_repair_time_s);
  EXPECT_EQ(a.orphaned_servents, b.orphaned_servents);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);

  EXPECT_EQ(a.connections_established, b.connections_established);
  EXPECT_EQ(a.connections_closed, b.connections_closed);

  ASSERT_EQ(a.overlay_samples.size(), b.overlay_samples.size());
  for (std::size_t i = 0; i < a.overlay_samples.size(); ++i) {
    expect_metrics_identical(a.overlay_samples[i], b.overlay_samples[i],
                             "overlay_sample");
  }
  expect_metrics_identical(a.overlay_final, b.overlay_final, "overlay_final");
  expect_metrics_identical(a.physical_final, b.physical_final,
                           "physical_final");

  EXPECT_EQ(a.masters, b.masters);
  EXPECT_EQ(a.slaves, b.slaves);
  EXPECT_EQ(a.query_success_rate(), b.query_success_rate());

  // Queue operation counters: pushes/pops are model-driven, and the
  // purge/compaction/ladder bookkeeping is deterministic given them.
  EXPECT_EQ(a.queue_pushes, b.queue_pushes);
  EXPECT_EQ(a.queue_pops, b.queue_pops);
  EXPECT_EQ(a.queue_tombstones_purged, b.queue_tombstones_purged);
  EXPECT_EQ(a.queue_compactions, b.queue_compactions);
  EXPECT_EQ(a.queue_ladder_spills, b.queue_ladder_spills);
  EXPECT_EQ(a.queue_ladder_rebuckets, b.queue_ladder_rebuckets);
  EXPECT_EQ(a.queue_peak_raw, b.queue_peak_raw);
}

// `sweeps`, when given, receives the invariant checker's sweep count.
RunResult run_with_threads(Parameters params, std::size_t threads,
                           std::uint64_t* sweeps = nullptr) {
  params.sim_threads = threads;
  scenario::SimulationRun run(params);
  RunResult result = run.run();
  if (sweeps != nullptr) *sweeps = run.invariant_checker()->sweeps_run();
  return result;
}

Parameters town_scenario() {
  // 150 nodes: the paper's headline population, long enough for overlay
  // build-out, queries, and mobility-driven neighbor churn.
  Parameters params;
  params.num_nodes = 150;
  params.area_width = 1000.0;
  params.area_height = 1000.0;
  params.radio_range = 100.0;
  params.duration_s = kTownDuration;
  params.seed = 7;
  params.sim_shards = 8;  // pinned MODEL: identical for every thread count
  params.overlay_sample_interval_s = kTownSampleInterval;
  return params;
}

Parameters crowd_scenario() {
  // 5000 nodes: exercises the dense-grid index, many shards with real
  // cross-shard traffic, and the per-lane pool accounting at scale. Short
  // wall window keeps this tractable under TSan.
  Parameters params;
  params.num_nodes = 5000;
  params.area_width = 4000.0;
  params.area_height = 4000.0;
  params.radio_range = 120.0;
  params.duration_s = kCrowdDuration;
  params.seed = 11;
  params.sim_shards = 16;
  params.join_stagger_s = kCrowdStagger;
  params.overlay_sample_interval_s = kCrowdSampleInterval;
  return params;
}

TEST(ParallelSim, TownRunBitIdenticalAcrossThreadCounts) {
  const RunResult one = run_with_threads(town_scenario(), 1);
  const RunResult four = run_with_threads(town_scenario(), 4);
  // The run must have actually done something, or identity is vacuous.
  ASSERT_GT(one.frames_delivered, 0u);
  ASSERT_GT(one.connections_established, 0u);
  ASSERT_GT(one.queue_ladder_spills, 0u);
  expect_run_identical(one, four);
  // The world the 4-ary heap produced before the ladder became the only
  // event queue: pop order is the strict (time, seq) total order, so the
  // container can never move a model counter.
  struct Pinned {
    std::uint64_t events, frames_tx, frames_delivered, queue_pushes;
    std::size_t peak_queue, connections;
    double energy_j;
  };
  constexpr Pinned kPinned =
      P2P_TSAN_BUILD
          ? Pinned{116366, 100942, 184320, 118374, 821, 319, 18.104417999995082}
          : Pinned{403080, 260612, 836606, 407434, 927, 363, 57.07897799999742};
  EXPECT_EQ(one.events_processed, kPinned.events);
  EXPECT_EQ(one.queue_pops, kPinned.events);
  EXPECT_EQ(one.frames_transmitted, kPinned.frames_tx);
  EXPECT_EQ(one.frames_delivered, kPinned.frames_delivered);
  EXPECT_EQ(one.queue_pushes, kPinned.queue_pushes);
  EXPECT_EQ(one.peak_queue_depth, kPinned.peak_queue);
  EXPECT_EQ(one.connections_established, kPinned.connections);
  EXPECT_EQ(one.energy_consumed_j, kPinned.energy_j);
}

// The invariant checker is on: its sweeps and fault-boundary hooks run as
// global events with every shard quiesced, so they see the same world and
// report the same (empty) violation list at any thread count.
TEST(ParallelSim, TownRunFaultedBitIdenticalAcrossThreadCounts) {
  Parameters params = town_scenario();
  params.fault.churn_rate_per_hour = 60.0;
  params.fault.mean_downtime_s = 40.0;
  params.fault.blackout_rate_per_hour = 30.0;
  params.fault.burst_rate_per_hour = 20.0;
  params.fault.burst_duration_s = 5.0;
  params.invariant_check_interval_s = 25.0;
  std::uint64_t sweeps_one = 0;
  std::uint64_t sweeps_four = 0;
  const RunResult one = run_with_threads(params, 1, &sweeps_one);
  const RunResult four = run_with_threads(params, 4, &sweeps_four);
  ASSERT_GT(one.churn_deaths, 0u);
  expect_run_identical(one, four);
  EXPECT_EQ(one.invariant_violations, 0u);
  EXPECT_GT(sweeps_one, 0u);
  EXPECT_EQ(sweeps_one, sweeps_four);
}

TEST(ParallelSim, CrowdRunBitIdenticalAcrossThreadCounts) {
  // Mega-scale-shaped coverage of the ladder under real cross-shard
  // traffic (5000 nodes, 16 shards) — the configuration tsan-determinism
  // runs to race-check the queue the 100k tier uses.
  const RunResult one = run_with_threads(crowd_scenario(), 1);
  const RunResult four = run_with_threads(crowd_scenario(), 4);
  ASSERT_GT(one.frames_delivered, 0u);
  ASSERT_GT(one.queue_ladder_spills, 0u);
  expect_run_identical(one, four);
}

TEST(ParallelSim, CrowdRunFaultedBitIdenticalAcrossThreadCounts) {
  Parameters params = crowd_scenario();
  // Low per-node rates: at 5000 nodes even 3/hour over a short window is
  // dozens of deaths — plenty of cross-shard crash/recover traffic without
  // turning the TSan run of this suite into minutes.
  params.fault.churn_rate_per_hour = 3.0;
  params.fault.mean_downtime_s = 30.0;
  params.fault.burst_rate_per_hour = 2.0;
  params.fault.burst_duration_s = 4.0;
  const RunResult one = run_with_threads(params, 1);
  const RunResult four = run_with_threads(params, 4);
  ASSERT_GT(one.churn_deaths, 0u);
  expect_run_identical(one, four);
}

TEST(ParallelSim, ThreadCountBeyondShardsIsStillIdentical) {
  // More threads than shards must clamp, not skew: 8 threads over 8
  // shards vs 3 threads over 8 shards vs 1 thread over 8 shards.
  const RunResult one = run_with_threads(town_scenario(), 1);
  const RunResult three = run_with_threads(town_scenario(), 3);
  const RunResult eight = run_with_threads(town_scenario(), 8);
  expect_run_identical(one, three);
  expect_run_identical(one, eight);
}

TEST(ParallelSim, ShardCountIsAModelParameter) {
  // Changing sim_shards is allowed to (and in practice does) change the
  // schedule — it remaps RNG streams and delivery batching. What it must
  // NOT change is workload conservation: the run completes and reports a
  // sane, fully-counted world. This guards against silently dropping
  // frames at shard boundaries.
  Parameters params = town_scenario();
  params.sim_shards = 4;
  const RunResult four_shards = run_with_threads(params, 2);
  params.sim_shards = 8;
  const RunResult eight_shards = run_with_threads(params, 2);
  for (const RunResult* r : {&four_shards, &eight_shards}) {
    EXPECT_EQ(r->num_nodes, 150u);
    EXPECT_GT(r->frames_delivered, 0u);
    EXPECT_GT(r->connections_established, 0u);
    EXPECT_EQ(r->frames_transmitted == 0,
              r->frames_delivered == 0 && r->frames_lost == 0);
    EXPECT_GT(r->query_success_rate(), 0.0);
  }
}

TEST(ParallelSim, SequentialPathKeepsSingleShard) {
  // Defaults (sim_threads=1, sim_shards=0) must resolve to the legacy
  // single-Simulator path — the byte-compatibility guarantee for every
  // pre-PR-7 config, golden metric, and cache key.
  Parameters params = town_scenario();
  params.sim_shards = 0;
  params.sim_threads = 1;
  EXPECT_EQ(params.effective_sim_shards(), 1u);
  params.sim_threads = 4;
  EXPECT_EQ(params.effective_sim_shards(), 8u);
  params.num_nodes = 10000;
  EXPECT_EQ(params.effective_sim_shards(), 64u);
  params.sim_shards = 12;
  params.sim_threads = 1;
  EXPECT_EQ(params.effective_sim_shards(), 12u);
}

}  // namespace
