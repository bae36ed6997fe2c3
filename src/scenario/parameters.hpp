// Full scenario description — paper Table 2 plus everything beneath it.
//
// Defaults reproduce the paper's setup: 100 m x 100 m area, 10 m radio
// range, 50 nodes with 75% of them in the P2P overlay, random-waypoint
// mobility at <= 1 m/s with <= 100 s pauses, 20 Zipf-distributed files
// with MAXFREQ 40%, 3600 simulated seconds.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/params.hpp"
#include "fault/params.hpp"
#include "net/energy.hpp"
#include "net/mac.hpp"
#include "routing/aodv.hpp"
#include "routing/dsdv.hpp"
#include "routing/dsr.hpp"
#include "util/config.hpp"

namespace p2p::scenario {

enum class QualifierDist : std::uint8_t {
  kUniformPermutation,  // a random total order (default)
  kTwoClass,            // 20% strong devices, 80% weak (notebooks vs PDAs)
};

enum class RoutingProtocol : std::uint8_t {
  kAodv,  // on-demand, what the paper used (best on high mobility [13])
  kDsdv,  // proactive comparison protocol (bench/ablation_routing)
  kDsr,   // on-demand source routing, the third protocol of [13]
};

enum class MobilityKind : std::uint8_t {
  kRandomWaypoint,   // the paper's model (human walking)
  kRandomDirection,  // edge-biased alternative [Camp 2002]
  kGaussMarkov,      // smooth AR(1) speed/heading [Camp 2002]
};

struct Parameters {
  // ---- world ----
  double area_width = 100.0;
  double area_height = 100.0;
  double radio_range = 10.0;
  std::size_t num_nodes = 50;
  double p2p_fraction = 0.75;
  double duration_s = 3600.0;
  std::uint64_t seed = 1;

  // ---- mobility ([Camp 2002]; the paper uses Random Waypoint) ----
  bool mobile = true;
  MobilityKind mobility_kind = MobilityKind::kRandomWaypoint;
  double max_speed = 1.0;
  double min_speed = 0.05;
  double max_pause = 100.0;

  // ---- content (§7.2) ----
  std::uint32_t num_files = 20;
  double max_frequency = 0.40;

  // ---- layers ----
  core::AlgorithmKind algorithm = core::AlgorithmKind::kRegular;
  core::P2pParams p2p;
  RoutingProtocol routing_protocol = RoutingProtocol::kAodv;
  routing::AodvParams aodv;
  routing::DsdvParams dsdv;
  routing::DsrParams dsr;
  net::MacParams mac;
  net::EnergyParams energy;
  QualifierDist qualifier_dist = QualifierDist::kUniformPermutation;

  // ---- fault injection (src/fault: churn, blackouts, loss bursts) ----
  fault::FaultParams fault;
  // Cross-layer invariant sweep interval; 0 disables the checker entirely
  // (it is also swept at every fault boundary when enabled).
  double invariant_check_interval_s = 0.0;
  // Overlay-repair / orphan sampling cadence while faults are active.
  double fault_monitor_interval_s = 10.0;

  // ---- measurement ----
  double overlay_sample_interval_s = 300.0;  // overlay-graph metric samples
  double join_stagger_s = 2.0;               // servents join within [0, x)

  // ---- parallel execution (conservative sharded DES; sim/sharded.hpp) ----
  // sim_threads is pure execution: any value >= 1 produces bit-identical
  // results for a given shard count. sim_shards selects the MODEL — the
  // spatial decomposition and per-shard RNG streams — so changing it (or
  // letting it auto-derive differently) is a different deterministic
  // schedule, like changing the seed. 1 thread with the default shard
  // derivation (0) keeps the single-Simulator sequential path, byte-for-
  // byte identical to pre-parallel builds.
  std::size_t sim_threads = 1;
  // 0 = auto: 1 shard when sim_threads == 1 (the legacy path); otherwise a
  // population-scaled count (64 at >= 8192 nodes, else 8) independent of
  // sim_threads so thread sweeps compare the same model.
  std::size_t sim_shards = 0;

  /// The shard count actually used for this scenario (resolves the 0-auto
  /// rule above). 1 means sequential execution.
  std::size_t effective_sim_shards() const noexcept {
    if (sim_shards > 0) return sim_shards;
    if (sim_threads <= 1) return 1;
    return num_nodes >= 8192 ? 64 : 8;
  }

  /// Number of P2P members for the current node count.
  std::size_t num_members() const noexcept {
    const auto m = static_cast<std::size_t>(
        static_cast<double>(num_nodes) * p2p_fraction + 0.5);
    return m == 0 ? 1 : m;
  }

  /// Ceiling on the fault events a config may expect FaultPlan::compile
  /// to plan (fault::FaultParams::expected_events): the plan is built whole
  /// before the run, so an unbounded one would exhaust memory.
  static constexpr double kMaxFaultEvents = 1e7;

  /// Apply "key=value" overrides, one per row of for_each_field (unknown
  /// keys are reported via the return value). Returns empty string on
  /// success, else a description of the first problem.
  std::string apply(const util::Config& config);

  /// One-line summary for bench headers.
  std::string summary() const;
};

/// A row's config key. `takes_inf` marks the one key whose value may be
/// +inf: battery_j, whose default is an unlimited budget. Every other
/// number must be finite.
struct ParamKey {
  constexpr ParamKey(const char* key, bool inf = false) noexcept
      : name(key), takes_inf(inf) {}
  const char* name;
  bool takes_inf;
};

/// Config spellings of an enum-valued field, indexed by the enum's value.
/// Parsing matches them case-insensitively.
std::span<const std::string_view> value_names(core::AlgorithmKind) noexcept;
std::span<const std::string_view> value_names(MobilityKind) noexcept;
std::span<const std::string_view> value_names(RoutingProtocol) noexcept;
std::span<const std::string_view> value_names(QualifierDist) noexcept;

/// The parameter table: every settable key, named once beside its field
/// (docs/parameters.md documents each row). Calls `fn(ParamKey, field)`
/// row by row; a field is a double, an integer, a bool or an enum with
/// value_names. Parameters::apply parses through this walk and
/// canonical_parameters (the cache key) prints through it, so every key a
/// config can set is part of the key, under the same name.
template <typename P, typename Fn>
  requires std::same_as<std::remove_const_t<P>, Parameters>
void for_each_field(P& p, Fn&& fn) {
  fn("area_width", p.area_width);
  fn("area_height", p.area_height);
  fn("radio_range", p.radio_range);
  fn("num_nodes", p.num_nodes);
  fn("p2p_fraction", p.p2p_fraction);
  fn("duration_s", p.duration_s);
  fn("seed", p.seed);

  fn("mobile", p.mobile);
  fn("mobility", p.mobility_kind);
  fn("max_speed", p.max_speed);
  fn("min_speed", p.min_speed);
  fn("max_pause", p.max_pause);

  fn("num_files", p.num_files);
  fn("max_frequency", p.max_frequency);

  fn("algorithm", p.algorithm);
  fn("maxnconn", p.p2p.maxnconn);
  fn("nhops_initial", p.p2p.nhops_initial);
  fn("maxnhops", p.p2p.maxnhops);
  fn("nhops_basic", p.p2p.nhops_basic);
  fn("maxdist", p.p2p.maxdist);
  fn("maxnslaves", p.p2p.maxnslaves);
  fn("query_ttl", p.p2p.query_ttl);
  fn("timer_initial", p.p2p.timer_initial);
  fn("maxtimer", p.p2p.maxtimer);
  fn("maxtimer_master", p.p2p.maxtimer_master);
  fn("ping_interval", p.p2p.ping_interval);
  fn("pong_timeout", p.p2p.pong_timeout);
  fn("silence_timeout", p.p2p.silence_timeout);
  fn("offer_window", p.p2p.offer_window);
  fn("handshake_timeout", p.p2p.handshake_timeout);
  fn("query_response_wait", p.p2p.query_response_wait);
  fn("query_gap_min", p.p2p.query_gap_min);
  fn("query_gap_max", p.p2p.query_gap_max);
  fn("query_by_popularity", p.p2p.query_by_popularity);
  fn("enable_queries", p.p2p.enable_queries);

  fn("routing_protocol", p.routing_protocol);
  fn("aodv_active_route_timeout", p.aodv.active_route_timeout);
  fn("dsdv_update_interval", p.dsdv.periodic_update_interval);
  fn("dsdv_stale_timeout", p.dsdv.route_stale_timeout);
  fn("mac_bandwidth_bps", p.mac.bandwidth_bps);
  fn("mac_loss_probability", p.mac.loss_probability);
  fn("mac_gray_zone_fraction", p.mac.gray_zone_fraction);
  fn(ParamKey("battery_j", /*inf=*/true), p.energy.battery_j);

  fn("churn_rate", p.fault.churn_rate_per_hour);
  fn("mean_uptime", p.fault.mean_uptime_s);
  fn("mean_downtime", p.fault.mean_downtime_s);
  fn("link_blackout_rate", p.fault.blackout_rate_per_hour);
  fn("link_blackout_duration", p.fault.blackout_duration_s);
  fn("loss_burst_rate", p.fault.burst_rate_per_hour);
  fn("loss_burst_duration", p.fault.burst_duration_s);
  fn("loss_burst_loss", p.fault.burst_loss_probability);
  fn("crash_run_at", p.fault.crash_run_at_s);
  fn("invariant_check_interval", p.invariant_check_interval_s);
  fn("fault_monitor_interval", p.fault_monitor_interval_s);

  fn("qualifier_dist", p.qualifier_dist);
  fn("overlay_sample_interval_s", p.overlay_sample_interval_s);
  fn("join_stagger_s", p.join_stagger_s);

  fn("sim_threads", p.sim_threads);
  fn("sim_shards", p.sim_shards);
}

}  // namespace p2p::scenario
