#include "scenario/parameters.hpp"

#include <set>
#include <sstream>

#include "core/factory.hpp"
#include "util/strings.hpp"

namespace p2p::scenario {

std::string Parameters::apply(const util::Config& config) {
  // Daemon-hardened application: every key must be known AND parse as its
  // declared type. The pre-serving behavior — a typo'd key or a value like
  // "fifty" silently keeping the default — is exactly wrong for untrusted
  // input: the caller believes an override took effect when it did not.
  // The first problem is reported ("key 'x': ..."); later getters no-op.
  std::string err;
  std::set<std::string, std::less<>> pending;
  for (auto& key : config.keys()) pending.insert(std::move(key));

  const auto take = [&](const char* key) -> std::optional<std::string> {
    pending.erase(key);
    return config.get_string(key);
  };
  const auto get_d = [&](const char* key, double* out) {
    const auto s = take(key);
    if (!s || !err.empty()) return;
    if (const auto v = util::parse_double(*s)) *out = *v;
    else err = std::string("key '") + key + "': invalid number '" + *s + "'";
  };
  const auto get_u64 = [&](const char* key, std::uint64_t* out) {
    const auto s = take(key);
    if (!s || !err.empty()) return;
    const auto v = util::parse_int(*s);
    if (!v || *v < 0) {
      err = std::string("key '") + key + "': invalid non-negative integer '" +
            *s + "'";
      return;
    }
    *out = static_cast<std::uint64_t>(*v);
  };
  const auto get_sz = [&](const char* key, std::size_t* out) {
    std::uint64_t v = *out;  // untouched unless present and valid
    get_u64(key, &v);
    *out = static_cast<std::size_t>(v);
  };
  const auto get_i = [&](const char* key, int* out) {
    const auto s = take(key);
    if (!s || !err.empty()) return;
    const auto v = util::parse_int(*s);
    if (!v || *v < -2147483648LL || *v > 2147483647LL) {
      err = std::string("key '") + key + "': invalid integer '" + *s + "'";
      return;
    }
    *out = static_cast<int>(*v);
  };
  const auto get_b = [&](const char* key, bool* out) {
    const auto s = take(key);
    if (!s || !err.empty()) return;
    if (const auto v = util::parse_bool(*s)) *out = *v;
    else err = std::string("key '") + key + "': invalid boolean '" + *s + "'";
  };

  get_d("area_width", &area_width);
  get_d("area_height", &area_height);
  get_d("radio_range", &radio_range);
  get_sz("num_nodes", &num_nodes);
  get_d("p2p_fraction", &p2p_fraction);
  get_d("duration_s", &duration_s);
  get_u64("seed", &seed);

  get_b("mobile", &mobile);
  if (const auto v = take("mobility"); v && err.empty()) {
    if (*v == "waypoint") mobility_kind = MobilityKind::kRandomWaypoint;
    else if (*v == "direction") mobility_kind = MobilityKind::kRandomDirection;
    else if (*v == "gauss_markov") mobility_kind = MobilityKind::kGaussMarkov;
    else return "unknown mobility: " + *v;
  }
  get_d("max_speed", &max_speed);
  get_d("min_speed", &min_speed);
  get_d("max_pause", &max_pause);

  {
    std::uint64_t files = num_files;
    get_u64("num_files", &files);
    num_files = static_cast<std::uint32_t>(files);
  }
  get_d("max_frequency", &max_frequency);

  if (const auto v = take("algorithm"); v && err.empty()) {
    const auto kind = core::parse_algorithm(*v);
    if (!kind) return "unknown algorithm: " + *v;
    algorithm = *kind;
  }

  get_i("maxnconn", &p2p.maxnconn);
  get_i("nhops_initial", &p2p.nhops_initial);
  get_i("maxnhops", &p2p.maxnhops);
  get_i("nhops_basic", &p2p.nhops_basic);
  get_i("maxdist", &p2p.maxdist);
  get_i("maxnslaves", &p2p.maxnslaves);
  get_i("query_ttl", &p2p.query_ttl);
  get_d("timer_initial", &p2p.timer_initial);
  get_d("maxtimer", &p2p.maxtimer);
  get_d("maxtimer_master", &p2p.maxtimer_master);
  get_d("ping_interval", &p2p.ping_interval);
  get_d("pong_timeout", &p2p.pong_timeout);
  get_d("silence_timeout", &p2p.silence_timeout);
  get_d("offer_window", &p2p.offer_window);
  get_d("handshake_timeout", &p2p.handshake_timeout);
  get_d("query_response_wait", &p2p.query_response_wait);
  get_d("query_gap_min", &p2p.query_gap_min);
  get_d("query_gap_max", &p2p.query_gap_max);
  get_b("query_by_popularity", &p2p.query_by_popularity);
  get_b("enable_queries", &p2p.enable_queries);

  if (const auto v = take("routing_protocol"); v && err.empty()) {
    if (*v == "aodv") routing_protocol = RoutingProtocol::kAodv;
    else if (*v == "dsdv") routing_protocol = RoutingProtocol::kDsdv;
    else if (*v == "dsr") routing_protocol = RoutingProtocol::kDsr;
    else return "unknown routing_protocol: " + *v;
  }
  get_d("aodv_active_route_timeout", &aodv.active_route_timeout);
  get_d("dsdv_update_interval", &dsdv.periodic_update_interval);
  get_d("dsdv_stale_timeout", &dsdv.route_stale_timeout);
  get_d("mac_bandwidth_bps", &mac.bandwidth_bps);
  get_d("mac_loss_probability", &mac.loss_probability);
  get_d("mac_gray_zone_fraction", &mac.gray_zone_fraction);
  get_d("battery_j", &energy.battery_j);

  get_d("churn_rate", &fault.churn_rate_per_hour);
  get_d("mean_uptime", &fault.mean_uptime_s);
  get_d("mean_downtime", &fault.mean_downtime_s);
  get_d("link_blackout_rate", &fault.blackout_rate_per_hour);
  get_d("link_blackout_duration", &fault.blackout_duration_s);
  get_d("loss_burst_rate", &fault.burst_rate_per_hour);
  get_d("loss_burst_duration", &fault.burst_duration_s);
  get_d("loss_burst_loss", &fault.burst_loss_probability);
  get_d("crash_run_at", &fault.crash_run_at_s);
  get_d("invariant_check_interval", &invariant_check_interval_s);
  get_d("fault_monitor_interval", &fault_monitor_interval_s);

  if (const auto v = take("qualifier_dist"); v && err.empty()) {
    if (*v == "uniform") qualifier_dist = QualifierDist::kUniformPermutation;
    else if (*v == "two_class") qualifier_dist = QualifierDist::kTwoClass;
    else return "unknown qualifier_dist: " + *v;
  }
  get_d("overlay_sample_interval_s", &overlay_sample_interval_s);
  get_d("join_stagger_s", &join_stagger_s);

  get_sz("sim_threads", &sim_threads);
  get_sz("sim_shards", &sim_shards);

  if (!err.empty()) return err;
  if (!pending.empty()) return "unknown key: " + *pending.begin();

  // Range validation. Every rule here exists because the daemon feeds this
  // from the network: a value that would wedge the simulator (zero area,
  // negative duration, probability > 1) must be an error, not a 100%-CPU
  // surprise discovered inside a worker.
  if (num_nodes == 0) return "num_nodes must be > 0";
  if (area_width <= 0.0 || area_height <= 0.0) {
    return "area dimensions must be > 0";
  }
  if (radio_range <= 0.0) return "radio_range must be > 0";
  if (duration_s <= 0.0) return "duration_s must be > 0";
  if (p2p_fraction <= 0.0 || p2p_fraction > 1.0) {
    return "p2p_fraction must be in (0, 1]";
  }
  if (min_speed < 0.0 || max_speed < min_speed) {
    return "need 0 <= min_speed <= max_speed";
  }
  if (max_pause < 0.0) return "max_pause must be >= 0";
  if (num_files == 0) return "num_files must be > 0";
  if (max_frequency <= 0.0 || max_frequency > 1.0) {
    return "max_frequency must be in (0, 1]";
  }
  if (mac.bandwidth_bps <= 0.0) return "mac_bandwidth_bps must be > 0";
  if (mac.loss_probability < 0.0 || mac.loss_probability > 1.0) {
    return "mac_loss_probability must be in [0, 1]";
  }
  if (mac.gray_zone_fraction < 0.0 || mac.gray_zone_fraction > 1.0) {
    return "mac_gray_zone_fraction must be in [0, 1]";
  }
  if (energy.battery_j <= 0.0) return "battery_j must be > 0";
  if (fault.churn_rate_per_hour < 0.0 || fault.blackout_rate_per_hour < 0.0 ||
      fault.burst_rate_per_hour < 0.0) {
    return "fault rates must be >= 0";
  }
  if (fault.mean_uptime_s < 0.0 || fault.mean_downtime_s < 0.0 ||
      fault.blackout_duration_s < 0.0 || fault.burst_duration_s < 0.0) {
    return "fault durations must be >= 0";
  }
  if (fault.burst_loss_probability < 0.0 ||
      fault.burst_loss_probability > 1.0) {
    return "loss_burst_loss must be in [0, 1]";
  }
  if (invariant_check_interval_s < 0.0 || fault_monitor_interval_s < 0.0 ||
      overlay_sample_interval_s < 0.0 || join_stagger_s < 0.0) {
    return "intervals must be >= 0";
  }
  if (sim_threads == 0) return "sim_threads must be > 0";
  if (fault.crash_run_enabled() && effective_sim_shards() > 1) {
    return "crash_run_at requires sequential execution (sim_shards <= 1)";
  }
  return {};
}

std::string Parameters::summary() const {
  std::ostringstream os;
  os << core::algorithm_name(algorithm) << " | " << num_nodes << " nodes ("
     << num_members() << " p2p), " << area_width << "x" << area_height
     << " m, range " << radio_range << " m, " << duration_s << " s, seed "
     << seed;
  return os.str();
}

}  // namespace p2p::scenario
