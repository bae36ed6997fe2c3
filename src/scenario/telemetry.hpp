// Per-seed run telemetry for the experiment engine.
//
// Every repetition of an experiment records how long it took on the wall
// clock, how fast the event loop ran, and how much traffic the simulated
// network carried. The collection serializes to a JSONL manifest (one
// header object, then one object per seed) that is written next to the
// experiment-cache entry and can be printed by `p2pmanet_sim
// --telemetry`. Schema: docs/determinism.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace p2p::scenario {

/// The counters one run reports on its seed line, in wire order. RunResult
/// inherits them, and SeedTelemetry adds the seed's identity and timing.
/// All are fixed-seed deterministic and thread-count invariant.
struct RunCounters {
  std::uint64_t events_processed = 0;
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::size_t peak_queue_depth = 0;  // event-queue high-water mark (live)

  // Event-queue operation counters, summed over the main Simulator and
  // every shard (sim::EventQueue::Stats). The pop order, and hence every
  // push/pop/cancel a run performs, is identical across thread counts.
  // queue_peak_raw is the physical-storage high-water mark (tombstones
  // included; it depends on purge timing, unlike the live
  // peak_queue_depth above).
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  std::uint64_t queue_tombstones_purged = 0;
  std::uint64_t queue_compactions = 0;
  std::uint64_t queue_ladder_spills = 0;
  std::uint64_t queue_ladder_rebuckets = 0;
  std::size_t queue_peak_raw = 0;

  // Payload-pool accounting (net::PayloadPools::stats()): acquisitions
  // served, slab growths (allocations NOT avoided), and the high-water
  // mark of live payloads. Pools are per-run, never shared across runs
  // or threads.
  std::uint64_t payload_acquires = 0;
  std::uint64_t payload_slab_allocs = 0;
  std::size_t payload_peak_live = 0;

  // Model-memory accounting (capacity-based, bytes), split by layer so
  // mega-scale telemetry can attribute growth: the network's dense
  // per-node arrays + spatial index + blackout ledger, the summed
  // routing-agent state (tables, caches, pending discoveries), and the
  // summed member-servent base state (handshake tables, connections,
  // duplicate caches). All first-touch allocated — growth must track what
  // the run actually did, not the population squared.
  std::size_t net_memory_bytes = 0;
  std::size_t routing_memory_bytes = 0;
  std::size_t servent_memory_bytes = 0;

  // Fault telemetry (all 0 on fault-free runs): crashes injected,
  // cross-layer invariant violations (0 when the checker is off, and on
  // healthy runs), and the time the live-member overlay spent fragmented
  // (monitor-tick resolution).
  std::uint64_t churn_deaths = 0;
  std::uint64_t invariant_violations = 0;
  double overlay_disrupted_s = 0.0;
};

/// One seed's record: its counters plus which seed it was and how long it
/// took on the wall clock.
struct SeedTelemetry : RunCounters {
  std::size_t seed_index = 0;   // 0-based offset from the base seed
  std::uint64_t seed = 0;       // the actual master seed of the run
  double wall_seconds = 0.0;    // wall-clock time of this repetition
  double events_per_sec = 0.0;  // events_processed / wall_seconds
};

/// One JSONL line for one seed, exactly the bytes RunTelemetry::to_jsonl
/// emits for that seed (no trailing newline). Every line carries every
/// RunCounters field, so all lines share one key sequence
/// (docs/determinism.md lists it). With `include_timing` false the
/// nondeterministic fields (wall_s, events_per_sec) are omitted — the
/// serving daemon's wire format, where a line must be byte-identical
/// whether the result was freshly computed or replayed from cache.
std::string seed_line_json(const SeedTelemetry& seed,
                           bool include_timing = true);

/// Telemetry for one multi-seed experiment. Workers fill disjoint
/// seed-indexed slots (no locking needed); the caller reads after the
/// experiment returns.
class RunTelemetry {
 public:
  /// Prepare `num_seeds` empty slots. Called by run_experiment.
  void reset(std::size_t num_seeds);

  /// Record one seed's telemetry (thread-safe for distinct indices).
  void set(std::size_t seed_index, const SeedTelemetry& t);

  const std::vector<SeedTelemetry>& per_seed() const noexcept {
    return seeds_;
  }

  /// Experiment-level fields, filled by run_experiment / the cache layer.
  void set_threads_used(std::size_t n) noexcept { threads_used_ = n; }
  std::size_t threads_used() const noexcept { return threads_used_; }
  void set_total_wall_seconds(double s) noexcept { total_wall_seconds_ = s; }
  double total_wall_seconds() const noexcept { return total_wall_seconds_; }
  void set_cache_key(std::string key) { cache_key_ = std::move(key); }
  const std::string& cache_key() const noexcept { return cache_key_; }

  /// Sum of per-seed events / sum of per-seed wall time (0 if no data).
  double aggregate_events_per_sec() const noexcept;

  /// JSONL manifest: header line + one line per recorded seed.
  std::string to_jsonl() const;

  /// Best-effort write of to_jsonl() to `path`. Returns success.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<SeedTelemetry> seeds_;
  std::size_t threads_used_ = 0;
  double total_wall_seconds_ = 0.0;
  std::string cache_key_;
};

}  // namespace p2p::scenario
