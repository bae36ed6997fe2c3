#include "scenario/cache.hpp"

#include <unistd.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/rng.hpp"  // fnv1a

namespace p2p::scenario {

namespace {

void put(std::ostream& os, const char* key, double v) {
  os << key << '=' << v << '\n';
}
void put(std::ostream& os, const char* key, std::uint64_t v) {
  os << key << '=' << v << '\n';
}

void write_stat(std::ostream& os, const stats::RunningStat& s) {
  os << s.count() << ' ' << s.mean() << ' ' << s.variance() << ' ' << s.min()
     << ' ' << s.max();
}

bool read_stat(std::istream& is, stats::RunningStat* s) {
  std::uint64_t n = 0;
  double mean = 0.0, var = 0.0, lo = 0.0, hi = 0.0;
  if (!(is >> n >> mean >> var >> lo >> hi)) return false;
  *s = stats::RunningStat::restore(n, mean, var, lo, hi);
  return true;
}

void write_curve(std::ostream& os, const char* name,
                 const stats::SortedCurve& curve) {
  os << "curve " << name << ' ' << curve.runs() << ' ' << curve.points()
     << '\n';
  for (const auto& s : curve.positions()) {
    write_stat(os, s);
    os << '\n';
  }
}

// The per-run stats after the rank block, in entry order. store_cached
// writes every one; an entry missing any of them is a miss.
template <typename Result>
auto run_stats(Result& r) {
  return std::array{&r.frames_transmitted,    &r.energy_consumed_j,
                    &r.routing_control,       &r.overlay_clustering,
                    &r.overlay_path_length,   &r.overlay_components,
                    &r.masters,               &r.slaves,
                    &r.events_processed,      &r.connections_established,
                    &r.connections_closed,    &r.churn_deaths,
                    &r.query_success_rate,    &r.overlay_disrupted_s,
                    &r.mean_repair_time_s,    &r.orphaned_servents,
                    &r.invariant_violations};
}

bool read_curve(std::istream& is, const std::string& expect_name,
                stats::SortedCurve* curve) {
  std::string tag, name;
  std::size_t runs = 0, points = 0;
  if (!(is >> tag >> name >> runs >> points)) return false;
  if (tag != "curve" || name != expect_name) return false;
  std::vector<stats::RunningStat> positions(points);
  for (auto& s : positions) {
    if (!read_stat(is, &s)) return false;
  }
  *curve = stats::SortedCurve::restore(std::move(positions), runs);
  return true;
}

// ---- checksummed entry I/O (shared by experiment + seed entries) -------
//
// On-disk layout: "p2pmanet-cache <version> <fnv1a-hex-of-payload>\n"
// followed by the payload. Readers verify the checksum before trusting a
// byte: a truncated, torn, or corrupted entry is a miss, never a crash.
// Writers publish via a process-private temp file + rename, so concurrent
// writers (threads in one daemon, or entirely separate processes racing on
// one key) each publish a complete entry and one of them wins.

bool read_checksummed(const std::string& path, const char* version,
                      std::string* payload) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string contents = buffer.str();

  const std::size_t header_end = contents.find('\n');
  if (header_end == std::string::npos) return false;
  std::istringstream header(contents.substr(0, header_end));
  std::string magic, got_version, checksum_hex;
  if (!(header >> magic >> got_version >> checksum_hex)) return false;
  if (magic != "p2pmanet-cache" || got_version != version) return false;
  std::string body = contents.substr(header_end + 1);
  std::uint64_t expected = 0;
  try {
    expected = std::stoull(checksum_hex, nullptr, 16);
  } catch (...) {
    return false;
  }
  if (sim::fnv1a(body) != expected) return false;
  *payload = std::move(body);
  return true;
}

void write_checksummed(const std::string& path, const char* version,
                       const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(cache_directory(), ec);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return;
    file << "p2pmanet-cache " << version << ' ' << std::hex
         << sim::fnv1a(payload) << '\n'
         << payload;
    if (!file) {
      file.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace

std::string canonical_parameters(const Parameters& p, std::size_t num_seeds) {
  std::ostringstream os;
  os.precision(17);
  // Bump this tag whenever a code change alters simulation behavior; it
  // invalidates every cached experiment. v6: portable in-house RNG
  // distributions replaced the std::*_distribution draws. v7: batched
  // broadcast delivery — all message/energy metrics are bit-identical to
  // v6, but events_processed (a serialized stat) counts one arrival event
  // per broadcast instead of one per receiver, so v6 entries would report
  // stale kernel telemetry. v8: fault-injection subsystem — zero-fault
  // runs are bit-identical to v7, but churned runs changed semantics
  // (exponential downtime, per-node RNG streams, crashed nodes now lose
  // protocol state) and v7 entries lack the churn-metric stats. v9: the
  // ladder is the only event queue — model results are bit-identical to
  // v8, but runs below 8192 nodes used the 4-ary heap, so v8 entries
  // would replay the heap's tombstone/compaction/peak-raw queue counters
  // (and no ladder spills or re-buckets) for them. v10: the full rebuild
  // is the only NeighborIndex maintenance mode — sequential results are
  // bit-identical to v9, but sharded runs at >= 8192 nodes now filter
  // ranges against positions all sampled at the window start, and
  // net_memory_bytes (a serialized stat) no longer counts the deleted
  // per-node deadline/sample-time arrays. v11: the hashed table is the
  // only AODV RoutingTable representation — model results are
  // bit-identical to v10, but AODV runs at <= 2048 nodes used dense
  // dst-indexed slots, so v10 entries would replay their
  // routing_memory_bytes (a serialized stat). FlatMap also stopped growing
  // on a hit, which trims FlatMap-backed memory stats at any size. v12:
  // the invariant checker is sweep-only — traffic and energy are
  // bit-identical to v11, but finite-battery runs with the checker on
  // reported false delivery-to-dead-node violations, and
  // invariant_violations is a serialized stat. v13: DupCache keeps its
  // sightings in util::FlatMap — every verdict is bit-identical to v12,
  // but the table grows at 5/8 load with no purge staging copy, and the
  // blackout ledger lost its staging buffer, so routing_memory_bytes,
  // servent_memory_bytes and (once a blackout ledger has been purged)
  // net_memory_bytes, all serialized stats, change.
  os << "code-v13\n";
  put(os, "area_width", p.area_width);
  put(os, "area_height", p.area_height);
  put(os, "radio_range", p.radio_range);
  put(os, "num_nodes", static_cast<std::uint64_t>(p.num_nodes));
  put(os, "p2p_fraction", p.p2p_fraction);
  put(os, "duration_s", p.duration_s);
  put(os, "seed", p.seed);
  put(os, "mobile", static_cast<std::uint64_t>(p.mobile));
  put(os, "mobility_kind", static_cast<std::uint64_t>(p.mobility_kind));
  put(os, "max_speed", p.max_speed);
  put(os, "min_speed", p.min_speed);
  put(os, "max_pause", p.max_pause);
  put(os, "num_files", static_cast<std::uint64_t>(p.num_files));
  put(os, "max_frequency", p.max_frequency);
  put(os, "algorithm", static_cast<std::uint64_t>(p.algorithm));
  // Algorithm-scoped behavior revisions: invalidate only the affected
  // algorithm's cached experiments.
  if (p.algorithm == core::AlgorithmKind::kRandom) {
    put(os, "random_code_rev", std::uint64_t{2});  // rev 2: capacity check in random_needed
  }
  put(os, "maxnconn", static_cast<std::uint64_t>(p.p2p.maxnconn));
  put(os, "nhops_initial", static_cast<std::uint64_t>(p.p2p.nhops_initial));
  put(os, "maxnhops", static_cast<std::uint64_t>(p.p2p.maxnhops));
  put(os, "nhops_basic", static_cast<std::uint64_t>(p.p2p.nhops_basic));
  put(os, "maxdist", static_cast<std::uint64_t>(p.p2p.maxdist));
  put(os, "maxnslaves", static_cast<std::uint64_t>(p.p2p.maxnslaves));
  put(os, "query_ttl", static_cast<std::uint64_t>(p.p2p.query_ttl));
  put(os, "timer_initial", p.p2p.timer_initial);
  put(os, "maxtimer", p.p2p.maxtimer);
  put(os, "maxtimer_master", p.p2p.maxtimer_master);
  put(os, "ping_interval", p.p2p.ping_interval);
  put(os, "pong_timeout", p.p2p.pong_timeout);
  put(os, "silence_timeout", p.p2p.silence_timeout);
  put(os, "offer_window", p.p2p.offer_window);
  put(os, "handshake_timeout", p.p2p.handshake_timeout);
  put(os, "query_response_wait", p.p2p.query_response_wait);
  put(os, "query_gap_min", p.p2p.query_gap_min);
  put(os, "query_gap_max", p.p2p.query_gap_max);
  put(os, "query_by_popularity",
      static_cast<std::uint64_t>(p.p2p.query_by_popularity));
  put(os, "enable_queries", static_cast<std::uint64_t>(p.p2p.enable_queries));
  put(os, "routing_protocol", static_cast<std::uint64_t>(p.routing_protocol));
  put(os, "dsdv_interval", p.dsdv.periodic_update_interval);
  put(os, "dsdv_stale", p.dsdv.route_stale_timeout);
  // Later-added knobs are emitted only when they deviate from defaults so
  // that existing cache entries for default scenarios remain valid (they
  // are behavioral no-ops at their defaults).
  {
    const routing::DsrParams dsr_defaults;
    if (p.dsr.route_lifetime != dsr_defaults.route_lifetime ||
        p.dsr.discovery_retries != dsr_defaults.discovery_retries) {
      put(os, "dsr_lifetime", p.dsr.route_lifetime);
      put(os, "dsr_retries",
          static_cast<std::uint64_t>(p.dsr.discovery_retries));
    }
  }
  // Fault-injection knobs, non-default-only (their defaults are exact
  // behavioral no-ops, so fault-free entries keep their keys).
  {
    const fault::FaultParams fault_defaults;
    if (p.fault.churn_rate_per_hour != fault_defaults.churn_rate_per_hour ||
        p.fault.mean_uptime_s != fault_defaults.mean_uptime_s ||
        p.fault.mean_downtime_s != fault_defaults.mean_downtime_s) {
      put(os, "fault_churn_rate", p.fault.churn_rate_per_hour);
      put(os, "fault_mean_uptime", p.fault.mean_uptime_s);
      put(os, "fault_mean_downtime", p.fault.mean_downtime_s);
    }
    if (p.fault.blackouts_enabled()) {
      put(os, "fault_blackout_rate", p.fault.blackout_rate_per_hour);
      put(os, "fault_blackout_duration", p.fault.blackout_duration_s);
    }
    if (p.fault.bursts_enabled()) {
      put(os, "fault_burst_rate", p.fault.burst_rate_per_hour);
      put(os, "fault_burst_duration", p.fault.burst_duration_s);
      put(os, "fault_burst_loss", p.fault.burst_loss_probability);
    }
    if (p.fault.crash_run_enabled()) {
      // Crashing runs never produce a cache entry, but the key must still
      // differ so a crash-configured request can never alias a healthy
      // cached result for the same scenario.
      put(os, "fault_crash_run_at", p.fault.crash_run_at_s);
    }
    if (p.invariant_check_interval_s != 0.0) {
      put(os, "invariant_check_interval", p.invariant_check_interval_s);
    }
    if (p.fault_monitor_interval_s != 10.0) {
      put(os, "fault_monitor_interval", p.fault_monitor_interval_s);
    }
  }
  put(os, "aodv_art", p.aodv.active_route_timeout);
  put(os, "aodv_my_rt", p.aodv.my_route_timeout);
  put(os, "aodv_ntt", p.aodv.node_traversal_time);
  put(os, "aodv_retries", static_cast<std::uint64_t>(p.aodv.rreq_retries));
  put(os, "mac_bw", p.mac.bandwidth_bps);
  put(os, "mac_loss", p.mac.loss_probability);
  put(os, "mac_jitter", p.mac.jitter_max_s);
  if (p.mac.gray_zone_fraction != 0.0) {
    put(os, "mac_gray_zone", p.mac.gray_zone_fraction);
  }
  put(os, "battery", p.energy.battery_j);
  put(os, "qualifier_dist", static_cast<std::uint64_t>(p.qualifier_dist));
  put(os, "overlay_sample_interval", p.overlay_sample_interval_s);
  put(os, "join_stagger", p.join_stagger_s);
  // The shard count is a model parameter (spatial decomposition + per-shard
  // RNG streams); sim_threads is pure execution and never enters the key.
  // Non-default-only: 1 effective shard is the legacy sequential schedule,
  // so existing cache entries keep their keys.
  if (p.effective_sim_shards() > 1) {
    put(os, "sim_shards", static_cast<std::uint64_t>(p.effective_sim_shards()));
  }
  put(os, "num_seeds", static_cast<std::uint64_t>(num_seeds));
  return os.str();
}

std::string cache_key(const Parameters& params, std::size_t num_seeds) {
  const std::string canon = canonical_parameters(params, num_seeds);
  std::ostringstream os;
  os << std::hex << sim::fnv1a(canon) << '-'
     << sim::fnv1a(canon + "salt");
  return os.str();
}

std::string cache_directory() {
  if (const char* env = std::getenv("P2P_BENCH_CACHE")) return env;
  return "bench_cache";
}

namespace {
std::string cache_path(const Parameters& params, std::size_t num_seeds) {
  return cache_directory() + "/" + cache_key(params, num_seeds) + ".txt";
}
}  // namespace

std::string manifest_path(const Parameters& params, std::size_t num_seeds) {
  return cache_directory() + "/" + cache_key(params, num_seeds) +
         ".runs.jsonl";
}

bool load_cached(const Parameters& params, std::size_t num_seeds,
                 ExperimentResult* result) {
  // Header line: "p2pmanet-cache v2 <fnv1a-hex-of-payload>". A truncated,
  // torn, or otherwise corrupted entry fails the checksum and is treated
  // as a miss, never a crash.
  std::string payload;
  if (!read_checksummed(cache_path(params, num_seeds), "v2", &payload)) {
    return false;
  }

  std::istringstream is(payload);
  ExperimentResult r;
  std::string tag;
  std::size_t runs = 0;
  if (!(is >> tag >> runs) || tag != "runs") return false;
  r.runs = runs;
  if (!read_curve(is, "connect", &r.connect_curve)) return false;
  if (!read_curve(is, "ping", &r.ping_curve)) return false;
  if (!read_curve(is, "query", &r.query_curve)) return false;

  std::size_t num_ranks = 0;
  if (!(is >> tag >> num_ranks) || tag != "ranks") return false;
  r.ranks.resize(num_ranks);
  for (auto& rank : r.ranks) {
    if (!read_stat(is, &rank.answers_per_request)) return false;
    if (!read_stat(is, &rank.min_distance)) return false;
    if (!read_stat(is, &rank.min_p2p_hops)) return false;
    if (!read_stat(is, &rank.answered_fraction)) return false;
  }
  for (auto* stat : run_stats(r)) {
    if (!read_stat(is, stat)) return false;
  }
  *result = std::move(r);
  return true;
}

void store_cached(const Parameters& params, std::size_t num_seeds,
                  const ExperimentResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "runs " << result.runs << '\n';
  write_curve(os, "connect", result.connect_curve);
  write_curve(os, "ping", result.ping_curve);
  write_curve(os, "query", result.query_curve);
  os << "ranks " << result.ranks.size() << '\n';
  for (const auto& rank : result.ranks) {
    write_stat(os, rank.answers_per_request);
    os << '\n';
    write_stat(os, rank.min_distance);
    os << '\n';
    write_stat(os, rank.min_p2p_hops);
    os << '\n';
    write_stat(os, rank.answered_fraction);
    os << '\n';
  }
  for (const auto* stat : run_stats(result)) {
    write_stat(os, *stat);
    os << '\n';
  }

  write_checksummed(cache_path(params, num_seeds), "v2", os.str());
}

std::string seed_cache_path(const Parameters& params) {
  return cache_directory() + "/" + cache_key(params, 1) + ".seed.txt";
}

bool load_cached_seed_line(const Parameters& params, std::string* line) {
  std::string payload;
  if (!read_checksummed(seed_cache_path(params), "seed-v1", &payload)) {
    return false;
  }
  // Payload is the line plus the trailing newline the writer appended.
  if (payload.empty() || payload.back() != '\n') return false;
  payload.pop_back();
  if (payload.find('\n') != std::string::npos) return false;
  *line = std::move(payload);
  return true;
}

void store_cached_seed_line(const Parameters& params,
                            const std::string& line) {
  write_checksummed(seed_cache_path(params), "seed-v1", line + "\n");
}

ExperimentResult run_experiment_cached(const Parameters& params,
                                       std::size_t num_seeds,
                                       std::size_t threads,
                                       const SeedDoneFn& on_run_done,
                                       RunTelemetry* telemetry) {
  ExperimentResult result;
  if (load_cached(params, num_seeds, &result)) return result;
  RunTelemetry local;
  RunTelemetry* tel = telemetry != nullptr ? telemetry : &local;
  result = run_experiment(params, num_seeds, threads, on_run_done, tel);
  store_cached(params, num_seeds, result);
  // Run manifest rides along with the cache entry (best-effort).
  tel->set_cache_key(cache_key(params, num_seeds));
  tel->write_jsonl(manifest_path(params, num_seeds));
  return result;
}

}  // namespace p2p::scenario
