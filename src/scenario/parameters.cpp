#include "scenario/parameters.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/strings.hpp"

namespace p2p::scenario {

namespace {

constexpr std::string_view kAlgorithmNames[] = {"basic", "regular", "random",
                                                "hybrid"};
constexpr std::string_view kMobilityNames[] = {"waypoint", "direction",
                                               "gauss_markov"};
constexpr std::string_view kRoutingNames[] = {"aodv", "dsdv", "dsr"};
constexpr std::string_view kQualifierNames[] = {"uniform", "two_class"};

bool equals_ignoring_case(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string bad_value(ParamKey key, const char* what, const std::string& text) {
  return std::string("key '") + key.name + "': " + what + " '" + text + "'";
}

// One parser per field type; each returns the problem, or "" after
// storing the value. Nothing is stored on a problem.
std::string parse_field(ParamKey key, const std::string& text, double* out) {
  const auto v = util::parse_double(text);
  if (!v) return bad_value(key, "invalid number", text);
  // strtod accepts nan and +-inf, and NaN slips through every range check
  // in apply, so a non-finite value is refused here for every key.
  if (!std::isfinite(*v) &&
      !(key.takes_inf && *v == std::numeric_limits<double>::infinity())) {
    return bad_value(key, "non-finite number", text);
  }
  *out = *v;
  return {};
}

std::string parse_field(ParamKey key, const std::string& text, bool* out) {
  const auto v = util::parse_bool(text);
  if (!v) return bad_value(key, "invalid boolean", text);
  *out = *v;
  return {};
}

template <std::integral T>
std::string parse_field(ParamKey key, const std::string& text, T* out) {
  // Parsed straight into the field's own type, so every value it can hold
  // is accepted (all 2^64 seeds) and anything it cannot is refused.
  const std::string_view digits = util::trim(text);
  T v{};
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec == std::errc::result_out_of_range) {
    return std::string("key '") + key.name + "': integer '" + text +
           "' out of range [" + std::to_string(std::numeric_limits<T>::min()) +
           ", " + std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  if (ec != std::errc{} || end != digits.data() + digits.size()) {
    return bad_value(key, "invalid integer", text);
  }
  *out = v;
  return {};
}

template <typename E>
  requires std::is_enum_v<E>
std::string parse_field(ParamKey key, const std::string& text, E* out) {
  const auto names = value_names(E{});
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (equals_ignoring_case(text, names[i])) {
      *out = static_cast<E>(i);
      return {};
    }
  }
  return std::string("unknown ") + key.name + ": " + text;
}

}  // namespace

std::span<const std::string_view> value_names(core::AlgorithmKind) noexcept {
  return kAlgorithmNames;
}
std::span<const std::string_view> value_names(MobilityKind) noexcept {
  return kMobilityNames;
}
std::span<const std::string_view> value_names(RoutingProtocol) noexcept {
  return kRoutingNames;
}
std::span<const std::string_view> value_names(QualifierDist) noexcept {
  return kQualifierNames;
}

std::string Parameters::apply(const util::Config& config) {
  // Daemon-hardened application: every key must be known AND parse as its
  // declared type. The pre-serving behavior — a typo'd key or a value like
  // "fifty" silently keeping the default — is exactly wrong for untrusted
  // input: the caller believes an override took effect when it did not.
  // The first problem in table order is reported ("key 'x': ..."), and
  // parse problems come before unknown keys.
  std::string err;
  std::size_t known = 0;
  for_each_field(*this, [&](ParamKey key, auto& field) {
    if (!err.empty()) return;
    const auto text = config.get_string(key.name);
    if (!text) return;
    ++known;
    err = parse_field(key, *text, &field);
  });
  if (!err.empty()) return err;
  if (known < config.size()) {
    // Config keys come sorted, so this names the first unknown one.
    for (const auto& name : config.keys()) {
      bool found = false;
      for_each_field(std::as_const(*this), [&](ParamKey key, const auto&) {
        found = found || name == key.name;
      });
      if (!found) return "unknown key: " + name;
    }
  }

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
  // Overlay integers. Hop counts feed FloodService::flood, which carries
  // max_hops - 1 in a uint8_t, and Random floods up to 2 * maxnhops; the
  // query TTL is a uint8_t itself; maxnslaves is used as a size_t.
  if (p2p.maxnconn < 1) return "maxnconn must be >= 1";
  if (p2p.maxnhops < 1 || p2p.maxnhops > 128) {
    return "maxnhops must be in [1, 128]";
  }
  if (p2p.nhops_initial < 1 || p2p.nhops_initial > p2p.maxnhops) {
    return "nhops_initial must be in [1, maxnhops]";
  }
  if (p2p.nhops_basic < 1 || p2p.nhops_basic > 256) {
    return "nhops_basic must be in [1, 256]";
  }
  if (p2p.query_ttl < 1 || p2p.query_ttl > 255) {
    return "query_ttl must be in [1, 255]";
  }
  if (p2p.maxnslaves < 0) return "maxnslaves must be >= 0";
  // A negative maxdist would read as "no bound" in handle_pong, 0 closes
  // every maintained link, and random links use 2 * maxdist as an int.
  if (p2p.maxdist < 1 || p2p.maxdist > std::numeric_limits<int>::max() / 2) {
    return "maxdist must be in [1, " +
           std::to_string(std::numeric_limits<int>::max() / 2) + "]";
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
  const fault::FaultParams::EventCounts events =
      fault.expected_events(static_cast<double>(num_nodes), duration_s);
  if (events.total() > kMaxFaultEvents) {
    // Name the key of the process that plans the most.
    const char* key = fault.mean_uptime_s > 0.0 ? "mean_uptime" : "churn_rate";
    if (events.blackouts > events.churn) key = "link_blackout_rate";
    if (events.bursts > std::max(events.churn, events.blackouts)) {
      key = "loss_burst_rate";
    }
    std::ostringstream os;
    os << key << ": the fault plan would hold about " << events.total()
       << " events (limit " << kMaxFaultEvents << ")";
    return os.str();
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
