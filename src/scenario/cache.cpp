#include "scenario/cache.hpp"

#include <unistd.h>

#include <array>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "sim/rng.hpp"  // fnv1a

namespace p2p::scenario {

namespace {

// Canonical value text: what Parameters::apply parses back to the same
// value. Doubles print shortest-round-trip ("inf" for battery_j's default).
template <typename T>
  requires std::is_arithmetic_v<T>
void append_value(std::string* out, T v) {
  if constexpr (std::is_same_v<T, bool>) {
    *out += v ? "true" : "false";
  } else {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out->append(buf, res.ptr);
  }
}

template <typename E>
  requires std::is_enum_v<E>
void append_value(std::string* out, E v) {
  *out += value_names(v)[static_cast<std::size_t>(v)];
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

// Seed entries hold seed_line_json's bytes: bump the version whenever the
// line's format changes (docs/determinism.md lists each bump).
constexpr const char* kSeedEntryVersion = "seed-v2";

}  // namespace

std::string canonical_parameters(const Parameters& params,
                                 std::size_t num_seeds) {
  // Every row of the parameter table under its config key, so every key a
  // config can set keys the cache. Execution-only fields are normalised
  // first: the shard count is a model parameter and enters as the count
  // actually used, while sim_threads never changes a result and is pinned.
  Parameters p = params;
  p.sim_shards = p.effective_sim_shards();
  p.sim_threads = 1;
  // Bump the tag whenever a code change alters simulation output for the
  // same parameters; docs/determinism.md "Cache-tag bump policy" has the
  // policy and the history of every tag.
  std::string out = "code-v16\n";
  for_each_field(std::as_const(p), [&](ParamKey key, const auto& field) {
    out += key.name;
    out += '=';
    append_value(&out, field);
    out += '\n';
  });
  out += "num_seeds=";
  append_value(&out, num_seeds);
  out += '\n';
  return out;
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
  if (!read_checksummed(seed_cache_path(params), kSeedEntryVersion,
                        &payload)) {
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
  write_checksummed(seed_cache_path(params), kSeedEntryVersion, line + "\n");
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
