// serve_mixed: a real `p2pd --workers 2` on a Unix socket, driven by a
// closed loop of two client connections.
//
// Inputs (all from --seed): most requests repeat one of a fixed pool of
// warm (config, seed) units, which the daemon answers from its disk cache;
// one in every kBlock asks for a fresh 50-node x 600 sim-s unit, which the
// daemon computes and caches. A quarter of the cold units are also
// handed to the other client, which sends the same unit next, so the
// daemon's in-flight dedup is exercised.
//
// Checks: every request gets exactly one seed line and a clean `done`
// trailer, and every seed line is byte-identical to the line the benchmark
// computes in process for that unit (seed_line_json without timing, the
// daemon's wire format), whether the daemon computed or replayed it.
//
// The traced run adds STATS deltas, in-process timings of the public calls
// on the daemon's request path over this run's own request lines, and a
// sampled replay of Session::handle_line against the run's warm cache.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sampler.hpp"
#include "scenario/cache.hpp"
#include "scenario/experiment.hpp"
#include "scenario/parameters.hpp"
#include "scenario/telemetry.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using p2p::scenario::Parameters;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWarmUnits = 12;
constexpr std::uint64_t kBlock = 32;  // one cold request per block: ~3%
constexpr std::uint64_t kSharedColdEvery = 4;  // 1 in 4 cold units
constexpr std::size_t kSetupSamples = 41;
constexpr double kReplaySeconds = 4.0;     // sampled handle_line replay
constexpr std::size_t kTimingCalls = 3000;  // per in-process timing

const char* const kAlgorithms[] = {"basic", "regular", "random", "hybrid"};
const char* const kDoneLine =
    R"({"type":"done","requested":1,"served":1,"errors":0})";

// A (config, seed) unit the generator can request.
struct Unit {
  std::string algorithm;
  std::uint64_t seed = 0;

  std::string request_line() const {
    return R"({"config":{"num_nodes":50,"duration_s":600,"algorithm":")" +
           algorithm + R"("},"seeds":[)" + std::to_string(seed) + "]}";
  }
  bool operator<(const Unit& o) const {
    return std::tie(algorithm, seed) < std::tie(o.algorithm, o.seed);
  }
};

// What the daemon must answer for a unit, computed in process.
struct Expected {
  std::string line;
  std::uint64_t events = 0;
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
};

// The daemon's request path up to the scheduler: flatten "config" into a
// Config exactly as serve::Session does, then Parameters::apply.
bool params_from_request(const p2p::util::JsonValue& req, Parameters* out) {
  p2p::util::Config config;
  if (const p2p::util::JsonValue* c = req.find("config")) {
    for (const auto& [key, value] : c->object) {
      config.set(key, value.is_string() ? value.string : value.raw);
    }
  }
  if (!out->apply(config).empty()) return false;
  if (const p2p::util::JsonValue* s = req.find("seeds")) {
    if (s->array.empty() || !s->array.front().as_uint()) return false;
    out->seed = *s->array.front().as_uint();
  }
  return true;
}

Parameters params_of(const Unit& u) {
  p2p::util::JsonValue req;
  std::string error;
  Parameters p;
  if (!p2p::util::parse_json(u.request_line(), &req, &error) ||
      !params_from_request(req, &p)) {
    std::cerr << "perfbench: cannot build parameters for "
              << u.request_line() << "\n";
    std::abort();
  }
  return p;
}

Expected compute_expected(const Unit& u) {
  p2p::scenario::SeedTelemetry t;
  const p2p::scenario::RunResult r =
      p2p::scenario::run_single_seed(params_of(u), &t);
  Expected e;
  e.line = p2p::scenario::seed_line_json(t, /*include_timing=*/false);
  e.events = r.events_processed;
  for (const auto& f : r.per_file) {
    e.queries += f.requests;
    e.answered += f.answered;
  }
  return e;
}

// Expected results for `units`, computed on `threads` threads.
std::map<Unit, Expected> compute_all(const std::vector<Unit>& units,
                                     std::size_t threads) {
  std::vector<Expected> out(units.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < units.size();) {
        out[i] = compute_expected(units[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  std::map<Unit, Expected> m;
  for (std::size_t i = 0; i < units.size(); ++i) m[units[i]] = out[i];
  return m;
}

// ---- the daemon process ---------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& cache_dir, const std::string& log_path)
      : socket_path_(socket_path) {
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "P2P_BENCH_CACHE=", 16) != 0) {
        env_store.push_back(*e);
      }
    }
    env_store.push_back("P2P_BENCH_CACHE=" + cache_dir);
    std::vector<char*> envp;
    for (auto& s : env_store) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> args = {binary, "--socket", socket_path,
                                     "--workers", std::to_string(kClients)};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                    envp.data()) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const noexcept { return socket_path_; }

  /// Peak resident set of the daemon in MiB (VmHWM), 0 if unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        status >> kb;
        return kb / 1024.0;
      }
      status.ignore(4096, '\n');
    }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

// ---- one client connection ------------------------------------------------

class Connection {
 public:
  /// Connects, retrying while the daemon is still starting.
  explicit Connection(const std::string& path, double timeout_s = 10.0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < timeout_s) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) return;
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::optional<std::string> read_line() {
    for (;;) {
      const auto nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::map<std::string, std::uint64_t> parse_stats(const std::string& line) {
  std::map<std::string, std::uint64_t> out;
  p2p::util::JsonValue doc;
  std::string error;
  if (!p2p::util::parse_json(line, &doc, &error) || !doc.is_object()) {
    return out;
  }
  for (const auto& [key, value] : doc.object) {
    if (const auto u = value.as_uint()) out[key] = *u;
  }
  return out;
}

// ---- the closed-loop generator ---------------------------------------------

struct Sample {
  Unit unit;
  bool cold = false;  // the generator made this unit fresh for the run
  double latency_ms = 0.0;
  bool ok = false;  // one seed line + clean trailer
  std::string line;
};

// Per-client request stream in blocks of kBlock requests, exactly one of
// them cold at a seeded position, so every run has the same cold share.
// Cold units are fresh seeds from the client's own stream (no two units of
// a run collide: the set of issued seeds is shared), their algorithms
// rotate, and every kSharedColdEvery-th one is also queued for the other
// client, which sends it next.
class Generator {
 public:
  Generator(std::uint64_t run_seed, std::vector<Unit> warm)
      : warm_(std::move(warm)) {
    for (std::size_t c = 0; c < kClients; ++c) {
      state_[c] = run_seed * 0x100000001B3ULL + c + 1;
      cold_count_[c] = c;  // the clients start their rotations apart
    }
    for (const Unit& u : warm_) issued_.insert(u.seed);
  }

  /// Next unit for `client`; `cold` tells whether it is fresh for the run.
  Unit next(std::size_t client, bool* cold) {
    std::scoped_lock lock(mutex_);
    if (!handoff_[client].empty()) {
      Unit u = handoff_[client].front();
      handoff_[client].pop_front();
      *cold = true;
      return u;
    }
    std::uint64_t* s = &state_[client];
    if (position_[client] == 0) cold_at_[client] = splitmix64(s) % kBlock;
    const bool is_cold = position_[client] == cold_at_[client];
    position_[client] = (position_[client] + 1) % kBlock;
    *cold = is_cold;
    if (!is_cold) return warm_[splitmix64(s) % warm_.size()];
    const std::uint64_t n = cold_count_[client]++;
    Unit u{kAlgorithms[n % 4], 0};
    do {
      u.seed = 1000 + splitmix64(s) % 1000000000ULL;
    } while (!issued_.insert(u.seed).second);
    if (n % kSharedColdEvery == kSharedColdEvery - 1) {
      handoff_[(client + 1) % kClients].push_back(u);
    }
    return u;
  }

 private:
  std::vector<Unit> warm_;
  std::mutex mutex_;
  std::uint64_t state_[kClients] = {};
  std::uint64_t position_[kClients] = {};  // within the current block
  std::uint64_t cold_at_[kClients] = {};
  std::uint64_t cold_count_[kClients] = {};
  std::deque<Unit> handoff_[kClients];
  std::set<std::uint64_t> issued_;
};

std::vector<Unit> warm_pool() {
  std::vector<Unit> pool;
  for (std::size_t i = 0; i < kWarmUnits; ++i) {
    pool.push_back({kAlgorithms[i % 4], 1 + i / 4});
  }
  return pool;
}

// One request over `conn`: returns false on a transport failure.
bool request(Connection* conn, Sample* s) {
  const auto t0 = Clock::now();
  if (!conn->send_line(s->unit.request_line())) return false;
  const auto first = conn->read_line();
  if (!first) return false;
  std::optional<std::string> trailer;
  if (first->rfind(R"({"type":"seed")", 0) == 0) {
    trailer = conn->read_line();
    if (!trailer) return false;
  }
  s->latency_ms = seconds_between(t0, Clock::now()) * 1e3;
  s->ok = trailer && *trailer == kDoneLine;
  s->line = *first;
  return true;
}

// ---- in-process timings of the daemon's public calls -----------------------

template <typename Fn>
double median_call_us(const std::vector<std::string>& lines, Fn&& fn) {
  std::vector<double> us;
  us.reserve(kTimingCalls);
  for (std::size_t i = 0; i < kTimingCalls; ++i) {
    const std::string& line = lines[i % lines.size()];
    const auto t0 = Clock::now();
    fn(line);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return median(us);
}

class ServeBench {
 public:
  ServeBench(const RunConfig& config, Report* report)
      : config_(config), report_(report) {
    root_ = config.work_dir + "/serve";
    std::filesystem::create_directories(root_);
  }

  void run() {
    const std::vector<Unit> warm = warm_pool();
    expected_ = compute_all(warm, kClients + 1);

    // Set-up: spawn to first STATS reply, several times; the last daemon
    // serves the loop.
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      if (daemon) daemon->stop();
      const std::string dir = root_ + "/d" + std::to_string(i);
      std::filesystem::create_directories(dir);
      cache_dir_ = dir + "/cache";
      const auto t0 = Clock::now();
      daemon = std::make_unique<Daemon>(config_.p2pd, dir + "/s.sock",
                                        cache_dir_, dir + "/daemon.log");
      Connection conn(daemon->socket_path());
      std::optional<std::string> reply;
      if (conn.ok() && conn.send_line("STATS")) reply = conn.read_line();
      setups.push_back(seconds_between(t0, Clock::now()));
      if (!reply || reply->rfind(R"({"type":"stats")", 0) != 0) {
        report_->check(false, "daemon did not answer STATS after spawn");
        return;
      }
    }

    std::deque<Connection> conns;
    for (std::size_t c = 0; c < kClients; ++c) {
      conns.emplace_back(daemon->socket_path());
    }
    // Warm the cache: every warm unit once.
    for (const Unit& u : warm) {
      Sample s;
      s.unit = u;
      verify(s, request(&conns[0], &s));
    }
    conns[0].send_line("STATS");
    const auto stats_before = parse_stats(conns[0].read_line().value_or(""));

    Generator gen(config_.seed, warm);
    std::vector<std::vector<Sample>> per_client(kClients);
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          config_.seconds));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (Clock::now() < deadline) {
          Sample s;
          s.unit = gen.next(c, &s.cold);
          const bool sent = request(&conns[c], &s);
          per_client[c].push_back(std::move(s));
          if (!sent) break;
        }
      });
    }
    for (auto& th : clients) th.join();
    const double loop_s = seconds_between(start, Clock::now());

    conns[0].send_line("STATS");
    const auto stats_after = parse_stats(conns[0].read_line().value_or(""));
    const double daemon_rss = daemon->peak_rss_mb();
    conns.clear();
    daemon->stop();

    // Every line the daemon served must match the in-process result.
    std::vector<Unit> cold;
    std::set<Unit> seen;
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        if (!expected_.count(s.unit) && seen.insert(s.unit).second) {
          cold.push_back(s.unit);
        }
      }
    }
    expected_.merge(compute_all(cold, kClients + 1));
    std::vector<double> all_ms, hit_ms, miss_ms;
    std::uint64_t served_queries = 0, served_answered = 0;
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        verify(s, true);
        all_ms.push_back(s.latency_ms);
        (s.cold ? miss_ms : hit_ms).push_back(s.latency_ms);
        const Expected& e = expected_[s.unit];
        served_queries += e.queries;
        served_answered += e.answered;
        if (!s.cold) request_lines_.push_back(s.unit.request_line());
      }
    }
    // The daemon simulated each cold unit once (a shared one is joined, not
    // recomputed); warm lines are replays, so only cold units count as work.
    std::uint64_t events = 0, queries = 0;
    for (const Unit& u : cold) {
      events += expected_[u].events;
      queries += expected_[u].queries;
    }

    const auto n = static_cast<double>(all_ms.size());
    report_->set("setup_s", median(setups), "s");
    report_->set("run_s", loop_s, "s");
    report_->set("events_per_s", static_cast<double>(events) / loop_s, "1/s");
    report_->set("queries_per_s", static_cast<double>(queries) / loop_s,
                 "1/s");
    report_->set("requests_per_s", n / loop_s, "1/s");
    report_->set("latency_p50_ms", percentile(all_ms, 0.50), "ms");
    report_->set("latency_p99_ms", percentile(all_ms, 0.99), "ms");
    report_->set("peak_rss_mb", daemon_rss, "MiB");
    report_->set("query_success",
                 served_queries == 0
                     ? 0.0
                     : static_cast<double>(served_answered) /
                           static_cast<double>(served_queries),
                 "ratio");
    report_->set("latency.samples", n, "count");
    if (!config_.trace) return;

    report_->set("serve.hit_ms_p50", percentile(hit_ms, 0.50), "ms");
    report_->set("serve.miss_ms_p50", percentile(miss_ms, 0.50), "ms");
    for (const char* key :
         {"cache_hits", "cache_misses", "dedup_joins", "overloads"}) {
      const auto get = [&](const auto& m) {
        const auto it = m.find(key);
        return it == m.end() ? std::uint64_t{0} : it->second;
      };
      report_->set(std::string("serve.") + key,
                   static_cast<double>(get(stats_after) - get(stats_before)),
                   "count");
    }
    in_process_timings();
  }

 private:
  void verify(const Sample& s, bool transported) {
    const auto it = expected_.find(s.unit);
    const bool ok = transported && s.ok && it != expected_.end() &&
                    s.line == it->second.line;
    report_->check(ok, "serve: unit " + s.unit.request_line() +
                           " answered with: " + s.line.substr(0, 200));
  }

  // Public calls on the daemon's request path, over this run's own warm
  // request lines, against the run's (now warm) cache directory.
  void in_process_timings() {
    ::setenv("P2P_BENCH_CACHE", cache_dir_.c_str(), 1);
    const std::vector<std::string>& lines = request_lines_;
    if (lines.empty()) return;

    report_->set("util.json.parse_us",
                 median_call_us(lines,
                                [](const std::string& line) {
                                  p2p::util::JsonValue doc;
                                  std::string error;
                                  p2p::util::parse_json(line, &doc, &error);
                                }),
                 "us");
    std::vector<p2p::util::JsonValue> docs(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string error;
      p2p::util::parse_json(lines[i], &docs[i], &error);
    }
    std::size_t k = 0;
    report_->set("scenario.apply_us",
                 median_call_us(lines,
                                [&](const std::string&) {
                                  Parameters p;
                                  params_from_request(docs[k++ % docs.size()],
                                                      &p);
                                }),
                 "us");
    std::vector<Parameters> params(docs.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
      params_from_request(docs[i], &params[i]);
    }
    k = 0;
    bool all_hit = true;
    const auto read_cache = [&](const std::string&) {
      std::string line;
      const Parameters& p = params[k++ % params.size()];
      all_hit &= p2p::scenario::load_cached_seed_line(p, &line);
    };
    report_->set("scenario.cache_read_us", median_call_us(lines, read_cache),
                 "us");
    report_->check(all_hit, "serve: warm unit missing from the cache");

    p2p::serve::Metrics metrics;
    p2p::serve::Scheduler scheduler(kClients, 64, &metrics);
    std::size_t written = 0;
    p2p::serve::Session session(&scheduler, &metrics, {},
                                [&](std::string_view) {
                                  ++written;
                                  return true;
                                });
    const auto handle = [&](const std::string& line) {
      session.handle_line(line);
    };
    const double plain_us = median_call_us(lines, handle);
    report_->set("serve.handle_line_us", plain_us, "us");

    const std::string path = config_.work_dir + "/profile_main.txt";
    std::vector<double> sampled_us;
    Sampler::start(kSampleIntervalUs);
    const auto start = Clock::now();
    for (std::size_t i = 0;
         seconds_between(start, Clock::now()) < kReplaySeconds; ++i) {
      const auto t0 = Clock::now();
      handle(lines[i % lines.size()]);
      sampled_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    const std::size_t samples = Sampler::stop(path);
    report_->add_profile("main", path);
    report_->set("trace.samples", static_cast<double>(samples), "count");
    report_->set("trace.overhead", median(sampled_us) / plain_us, "ratio");
    report_->check(written == 2 * (kTimingCalls + sampled_us.size()),
                   "serve: in-process replay lost response lines");
    scheduler.stop();
  }

  const RunConfig& config_;
  Report* report_;
  std::string root_;
  std::string cache_dir_;
  std::map<Unit, Expected> expected_;
  std::vector<std::string> request_lines_;
};

}  // namespace

void run_serve_workload(const RunConfig& config, Report* report) {
  ServeBench(config, report).run();
}

}  // namespace perfbench
