// The determinism contract of the experiment engine (docs/determinism.md):
// thread-count-independent bit-identical aggregation, crash-isolated
// workers that surface the failing seed, torn cache entries read as
// misses, and per-seed telemetry. Tier-1 runs this suite under TSan too
// (CMakePresets.json `tsan` preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "mobility/random_waypoint.hpp"
#include "net/network.hpp"
#include "scenario/cache.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "scenario/telemetry.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p;
using scenario::ExperimentError;
using scenario::ExperimentResult;
using scenario::Parameters;
using scenario::RunResult;

Parameters tiny_scenario(std::uint64_t seed = 1) {
  Parameters params;
  params.num_nodes = 16;
  params.duration_s = 200.0;
  params.algorithm = core::AlgorithmKind::kRegular;
  params.seed = seed;
  params.overlay_sample_interval_s = 100.0;
  return params;
}

// Bit-for-bit equality: the contract is exact double equality of every
// serialized moment, not EXPECT_NEAR.
void expect_stat_identical(const stats::RunningStat& a,
                           const stats::RunningStat& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_curve_identical(const stats::SortedCurve& a,
                            const stats::SortedCurve& b, const char* what) {
  EXPECT_EQ(a.runs(), b.runs()) << what;
  ASSERT_EQ(a.points(), b.points()) << what;
  for (std::size_t i = 0; i < a.points(); ++i) {
    expect_stat_identical(a.positions()[i], b.positions()[i], what);
  }
}

void expect_experiment_identical(const ExperimentResult& a,
                                 const ExperimentResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  expect_curve_identical(a.connect_curve, b.connect_curve, "connect_curve");
  expect_curve_identical(a.ping_curve, b.ping_curve, "ping_curve");
  expect_curve_identical(a.query_curve, b.query_curve, "query_curve");
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t k = 0; k < a.ranks.size(); ++k) {
    expect_stat_identical(a.ranks[k].answers_per_request,
                          b.ranks[k].answers_per_request, "answers_per_request");
    expect_stat_identical(a.ranks[k].min_distance, b.ranks[k].min_distance,
                          "min_distance");
    expect_stat_identical(a.ranks[k].min_p2p_hops, b.ranks[k].min_p2p_hops,
                          "min_p2p_hops");
    expect_stat_identical(a.ranks[k].answered_fraction,
                          b.ranks[k].answered_fraction, "answered_fraction");
  }
  expect_stat_identical(a.frames_transmitted, b.frames_transmitted,
                        "frames_transmitted");
  expect_stat_identical(a.energy_consumed_j, b.energy_consumed_j,
                        "energy_consumed_j");
  expect_stat_identical(a.routing_control, b.routing_control,
                        "routing_control");
  expect_stat_identical(a.overlay_clustering, b.overlay_clustering,
                        "overlay_clustering");
  expect_stat_identical(a.overlay_path_length, b.overlay_path_length,
                        "overlay_path_length");
  expect_stat_identical(a.overlay_components, b.overlay_components,
                        "overlay_components");
  expect_stat_identical(a.masters, b.masters, "masters");
  expect_stat_identical(a.slaves, b.slaves, "slaves");
  expect_stat_identical(a.events_processed, b.events_processed,
                        "events_processed");
  expect_stat_identical(a.connections_established, b.connections_established,
                        "connections_established");
  expect_stat_identical(a.connections_closed, b.connections_closed,
                        "connections_closed");
}

TEST(Determinism, ThreadCountDoesNotChangeResults) {
  const Parameters params = tiny_scenario(7);
  const std::size_t seeds = 8;
  const auto sequential = scenario::run_experiment(params, seeds, 1);
  const auto parallel = scenario::run_experiment(params, seeds, 4);
  expect_experiment_identical(sequential, parallel);
}

TEST(Determinism, RepeatedParallelRunsAreIdentical) {
  const Parameters params = tiny_scenario(3);
  const auto a = scenario::run_experiment(params, 6, 3);
  const auto b = scenario::run_experiment(params, 6, 3);
  expect_experiment_identical(a, b);
}

TEST(Determinism, WorkerExceptionNamesFailingSeed) {
  Parameters params = tiny_scenario();
  params.seed = 100;
  const auto run_fn = [](const Parameters& p) -> RunResult {
    if (p.seed == 102) throw std::runtime_error("injected failure");
    return scenario::SimulationRun(p).run();
  };
  try {
    scenario::run_experiment_with(params, 6, /*threads=*/3, run_fn);
    FAIL() << "expected ExperimentError";
  } catch (const ExperimentError& e) {
    EXPECT_EQ(e.seed(), 102U);
    EXPECT_EQ(e.seed_index(), 2U);
    EXPECT_NE(std::string(e.what()).find("seed 102"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos);
  }
}

TEST(Determinism, SequentialWorkerExceptionAlsoSurfaces) {
  const auto run_fn = [](const Parameters& p) -> RunResult {
    if (p.seed == 2) throw std::logic_error("boom");
    return RunResult{};
  };
  EXPECT_THROW(
      scenario::run_experiment_with(tiny_scenario(1), 4, 1, run_fn),
      ExperimentError);
}

TEST(Determinism, CallbackReportsEachSeedOnceOutsideLocks) {
  const Parameters params = tiny_scenario(5);
  std::mutex mutex;
  std::vector<std::size_t> reported;
  scenario::run_experiment(params, 5, 3,
                           [&](std::size_t seed_index, std::size_t total) {
                             EXPECT_EQ(total, 5U);
                             std::scoped_lock lock(mutex);
                             reported.push_back(seed_index);
                           });
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(reported, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Determinism, TelemetryRecordsEverySeed) {
  const Parameters params = tiny_scenario(11);
  scenario::RunTelemetry telemetry;
  scenario::run_experiment(params, 4, 2, {}, &telemetry);
  ASSERT_EQ(telemetry.per_seed().size(), 4U);
  EXPECT_EQ(telemetry.threads_used(), 2U);
  EXPECT_GT(telemetry.total_wall_seconds(), 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& t = telemetry.per_seed()[i];
    EXPECT_EQ(t.seed_index, i);
    EXPECT_EQ(t.seed, params.seed + i);
    EXPECT_GT(t.events_processed, 0U);
    EXPECT_GT(t.frames_transmitted, 0U);
    EXPECT_GT(t.peak_queue_depth, 0U);
    EXPECT_GE(t.events_per_sec, 0.0);
    // Memory accounting flows through the telemetry (mega-scale runs use
    // it to verify per-node state stays O(what the run touched)).
    EXPECT_GT(t.net_memory_bytes, 0U);
    EXPECT_GT(t.routing_memory_bytes, 0U);
    EXPECT_GT(t.servent_memory_bytes, 0U);
  }
  const std::string jsonl = telemetry.to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"experiment\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"seed\""), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            5U);  // header + 4 seeds
}

// Payload-pool counters are part of the fixed-seed contract: pools are
// per-run, so running the same seeds on 1 worker or 3 must produce the
// same acquisitions / slab growths / peak-live per seed.
TEST(Determinism, PayloadPoolStatsAreThreadCountInvariant) {
  const Parameters params = tiny_scenario(13);
  scenario::RunTelemetry serial;
  scenario::run_experiment(params, 3, 1, {}, &serial);
  scenario::RunTelemetry threaded;
  scenario::run_experiment(params, 3, 3, {}, &threaded);
  ASSERT_EQ(serial.per_seed().size(), 3U);
  ASSERT_EQ(threaded.per_seed().size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = serial.per_seed()[i];
    const auto& b = threaded.per_seed()[i];
    EXPECT_GT(a.payload_acquires, 0U);
    EXPECT_GT(a.payload_peak_live, 0U);
    EXPECT_EQ(a.payload_acquires, b.payload_acquires);
    EXPECT_EQ(a.payload_slab_allocs, b.payload_slab_allocs);
    EXPECT_EQ(a.payload_peak_live, b.payload_peak_live);
    // Capacity-based memory accounting is a pure function of the run's
    // allocation history, so it is thread-count invariant too.
    EXPECT_EQ(a.net_memory_bytes, b.net_memory_bytes);
    EXPECT_EQ(a.routing_memory_bytes, b.routing_memory_bytes);
    EXPECT_EQ(a.servent_memory_bytes, b.servent_memory_bytes);
  }
  // And they reach the manifest (every seed line carries every counter).
  const std::string jsonl = serial.to_jsonl();
  EXPECT_NE(jsonl.find("\"payload_acquires\":"), std::string::npos);
}

// Event-queue operation counters are part of the fixed-seed contract too:
// every push, pop, tombstone purge, compaction, spill and re-bucket a run
// performs is model-driven, so 1 worker or 3 must report the same numbers
// per seed.
TEST(Determinism, QueueStatsAreThreadCountInvariant) {
  const Parameters params = tiny_scenario(13);
  scenario::RunTelemetry serial;
  scenario::run_experiment(params, 3, 1, {}, &serial);
  scenario::RunTelemetry threaded;
  scenario::run_experiment(params, 3, 3, {}, &threaded);
  ASSERT_EQ(serial.per_seed().size(), 3U);
  ASSERT_EQ(threaded.per_seed().size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = serial.per_seed()[i];
    const auto& b = threaded.per_seed()[i];
    EXPECT_GT(a.queue_pushes, 0U);
    EXPECT_GT(a.queue_pops, 0U);
    EXPECT_GT(a.queue_ladder_spills, 0U);
    EXPECT_GE(a.queue_pushes, a.queue_pops);
    EXPECT_EQ(a.queue_pushes, b.queue_pushes);
    EXPECT_EQ(a.queue_pops, b.queue_pops);
    EXPECT_EQ(a.queue_tombstones_purged, b.queue_tombstones_purged);
    EXPECT_EQ(a.queue_compactions, b.queue_compactions);
    EXPECT_EQ(a.queue_ladder_spills, b.queue_ladder_spills);
    EXPECT_EQ(a.queue_ladder_rebuckets, b.queue_ladder_rebuckets);
    EXPECT_EQ(a.queue_peak_raw, b.queue_peak_raw);
    EXPECT_GE(a.queue_peak_raw, a.peak_queue_depth);
  }
  // The block reaches the manifest (every seed line carries every counter).
  EXPECT_NE(serial.to_jsonl().find("\"queue_pushes\":"), std::string::npos);
}

class CacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/p2p_determinism_cache";
    std::filesystem::remove_all(dir_);
    ::setenv("P2P_BENCH_CACHE", dir_.c_str(), 1);
  }
  void TearDown() override { ::unsetenv("P2P_BENCH_CACHE"); }

  std::string entry_path(const Parameters& params, std::size_t seeds) {
    return scenario::cache_directory() + "/" +
           scenario::cache_key(params, seeds) + ".txt";
  }

  std::string dir_;
};

TEST_F(CacheDirTest, GarbageCacheFileIsAMiss) {
  Parameters params = tiny_scenario();
  std::filesystem::create_directories(dir_);
  std::ofstream(entry_path(params, 2)) << "not a cache entry at all\n";
  ExperimentResult result;
  EXPECT_FALSE(scenario::load_cached(params, 2, &result));
}

TEST_F(CacheDirTest, TruncatedCacheFileIsAMiss) {
  Parameters params = tiny_scenario();
  params.duration_s = 100.0;
  const auto computed = scenario::run_experiment_cached(params, 2, 2);
  ExperimentResult loaded;
  ASSERT_TRUE(scenario::load_cached(params, 2, &loaded));

  // Tear the entry: keep the header and half the payload.
  const std::string path = entry_path(params, 2);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  const std::string full = buf.str();
  std::ofstream(path, std::ios::trunc) << full.substr(0, full.size() / 2);

  EXPECT_FALSE(scenario::load_cached(params, 2, &loaded));
  // And a checksum-valid but bit-flipped payload is also a miss.
  std::string flipped = full;
  flipped[full.size() - 2] = flipped[full.size() - 2] == '1' ? '2' : '1';
  std::ofstream(path, std::ios::trunc) << flipped;
  EXPECT_FALSE(scenario::load_cached(params, 2, &loaded));
  // A checksum-valid payload that lacks stats is a miss too, not a load
  // with the missing stats zeroed: drop the last 8 stat lines and
  // re-checksum.
  const std::string payload = full.substr(full.find('\n') + 1);
  std::size_t cut = payload.size() - 1;  // the final newline
  for (int line = 0; line < 8; ++line) cut = payload.rfind('\n', cut - 1);
  const std::string shortened = payload.substr(0, cut + 1);
  std::ofstream(path, std::ios::trunc)
      << "p2pmanet-cache v2 " << std::hex << sim::fnv1a(shortened) << '\n'
      << shortened;
  EXPECT_FALSE(scenario::load_cached(params, 2, &loaded));
}

TEST_F(CacheDirTest, SeedEntryFromOlderLineFormatIsAMiss) {
  // seed-v1 lines left the fault counters out of fault-free runs; a
  // checksum-valid entry under that header must be recomputed, not served
  // next to fresh lines that carry them.
  Parameters params = tiny_scenario();
  scenario::store_cached_seed_line(params, "{\"type\":\"seed\"}");
  std::string line;
  ASSERT_TRUE(scenario::load_cached_seed_line(params, &line));
  EXPECT_EQ(line, "{\"type\":\"seed\"}");

  const std::string payload = line + "\n";
  std::ofstream(scenario::seed_cache_path(params), std::ios::trunc)
      << "p2pmanet-cache seed-v1 " << std::hex << sim::fnv1a(payload) << '\n'
      << payload;
  EXPECT_FALSE(scenario::load_cached_seed_line(params, &line));
}

TEST_F(CacheDirTest, ManifestWrittenNextToCacheEntry) {
  Parameters params = tiny_scenario();
  params.duration_s = 100.0;
  scenario::RunTelemetry telemetry;
  scenario::run_experiment_cached(params, 2, 2, {}, &telemetry);
  const std::string manifest = scenario::manifest_path(params, 2);
  ASSERT_TRUE(std::filesystem::exists(manifest));
  std::ifstream in(manifest);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("\"type\":\"experiment\""), std::string::npos);
  EXPECT_NE(first_line.find(scenario::cache_key(params, 2)),
            std::string::npos);
  EXPECT_EQ(telemetry.cache_key(), scenario::cache_key(params, 2));
}

TEST_F(CacheDirTest, CachedResultRoundTripsBitIdentical) {
  Parameters params = tiny_scenario();
  params.duration_s = 100.0;
  const auto computed = scenario::run_experiment_cached(params, 3, 3);
  ExperimentResult loaded;
  ASSERT_TRUE(scenario::load_cached(params, 3, &loaded));
  EXPECT_EQ(loaded.runs, computed.runs);
  ASSERT_EQ(loaded.connect_curve.points(), computed.connect_curve.points());
  // Serialization goes through text at precision 17, which round-trips
  // IEEE doubles exactly.
  for (std::size_t i = 0; i < loaded.connect_curve.points(); ++i) {
    EXPECT_EQ(loaded.connect_curve.mean_at(i),
              computed.connect_curve.mean_at(i));
  }
  EXPECT_EQ(loaded.frames_transmitted.mean(),
            computed.frames_transmitted.mean());
  EXPECT_EQ(loaded.frames_transmitted.variance(),
            computed.frames_transmitted.variance());
}

// ---- NeighborIndex against a brute-force reference ---------------------
//
// Network::neighbors_of must return exactly the O(n^2) in-range set over
// fresh positions, ordered by (cell of the node's position at the index's
// built_at(), id) — the candidate order the MAC RNG draw sequence is keyed
// to. The reference re-derives both from a twin of every mobility model
// (same seeds) and the documented grid geometry, never from the index.
// Runs under the tsan-determinism preset via this file's filter membership.

/// One world: n random-waypoint nodes on a paper-density square, plus a
/// twin of each node's mobility model for the reference.
struct IndexWorld {
  static constexpr double kRange = 10.0;
  static constexpr double kTolerance = 0.25;
  static constexpr double kMaxSpeed = 1.0;

  sim::Simulator sim;
  net::Network network;
  std::vector<mobility::RandomWaypoint> twins;

  IndexWorld(std::size_t n, double side)
      : network(sim, make_params(side), sim::RngStream(99)) {
    mobility::RandomWaypointParams rwp;
    rwp.region = {side, side};
    rwp.max_speed = kMaxSpeed;
    rwp.max_pause = 20.0;
    twins.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      network.add_node(std::make_unique<mobility::RandomWaypoint>(
          rwp, sim::RngStream(1000 + i)));
      twins.emplace_back(rwp, sim::RngStream(1000 + i));
    }
  }

  static net::NetworkParams make_params(double side) {
    net::NetworkParams p;
    p.region = {side, side};
    p.range = kRange;
    p.index_tolerance_s = kTolerance;
    p.max_speed_hint = kMaxSpeed;
    return p;
  }
};

void expect_neighbors_match_reference(std::size_t n, double horizon_s,
                                      double step_s) {
  // Paper density: ~50 nodes per 100x100 m.
  const double side = 100.0 * std::sqrt(static_cast<double>(n) / 50.0);
  IndexWorld world(n, side);
  // Grid geometry: cells are range + 2 * tolerance * max_speed wide,
  // row-major, the last row/column absorbing the remainder.
  const double cell = IndexWorld::kRange +
                      2.0 * IndexWorld::kTolerance * IndexWorld::kMaxSpeed;
  const auto cols = std::max<std::size_t>(
      1, static_cast<std::size_t>(side / cell));
  auto cell_of = [&](geo::Vec2 p) {
    const auto axis = [&](double v) {
      const auto c =
          static_cast<std::size_t>(std::clamp(v, 0.0, side) / cell);
      return std::min(c, cols - 1);
    };
    return axis(p.y) * cols + axis(p.x);
  };
  const double r2 = IndexWorld::kRange * IndexWorld::kRange;
  std::vector<std::size_t> ref_cell(n);
  std::vector<geo::Vec2> pos(n);
  std::vector<std::vector<net::NodeId>> expected(n);
  std::vector<net::NodeId> got;
  double cells_at = -1.0;
  std::size_t checked_edges = 0;
  // Irregular instants (prime-ish stride) so rebuilds land mid-stride, not
  // conveniently on query boundaries. Every third step adds a
  // sub-tolerance probe: within a staleness window the layout stays frozen
  // at built_at() while positions move on, so querying BETWEEN rebuild
  // instants is the regime where candidate order and fresh range can
  // disagree.
  int step_no = 0;
  for (double t = step_s; t <= horizon_s;
       t += (++step_no % 3 == 0) ? 0.07 : step_s * 1.37) {
    world.sim.run_until(t);
    world.network.neighbors_of(0, &got);  // refreshes the index if stale
    const double built_at = world.network.neighbor_index().built_at();
    ASSERT_LE(built_at, t);
    ASSERT_LT(t - built_at, IndexWorld::kTolerance);
    if (built_at != cells_at) {
      for (std::size_t i = 0; i < n; ++i) {
        ref_cell[i] = cell_of(world.twins[i].position_at(built_at));
      }
      cells_at = built_at;
    }
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = world.twins[i].position_at(t);
      expected[i].clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (geo::distance2(pos[i], pos[j]) <= r2) {
          expected[i].push_back(static_cast<net::NodeId>(j));
          expected[j].push_back(static_cast<net::NodeId>(i));
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::sort(expected[i].begin(), expected[i].end(),
                [&](net::NodeId a, net::NodeId b) {
                  return ref_cell[a] != ref_cell[b] ? ref_cell[a] < ref_cell[b]
                                                    : a < b;
                });
      world.network.neighbors_of(static_cast<net::NodeId>(i), &got);
      ASSERT_EQ(got, expected[i])
          << "node " << i << " at t=" << t << " (n=" << n << ")";
      checked_edges += got.size();
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(checked_edges, n);
}

TEST(NeighborIndexReference, NeighborsMatchBruteForce150) {
  expect_neighbors_match_reference(150, 120.0, 0.75);
}

TEST(NeighborIndexReference, NeighborsMatchBruteForce5k) {
  expect_neighbors_match_reference(5000, 12.0, 0.5);
}

}  // namespace
