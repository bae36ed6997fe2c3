// Simulation workloads: overlay_churn_500 (the four paper algorithms under
// churn at 500 nodes) and mega_20k (one 20,000-node world).
//
// Every world is driven through the public SimulationRun calls, split so
// the benchmark can time each phase from outside:
//   build()                       -> scenario.build_s   (setup_s)
//   simulator().run_until(T)      -> scenario.simulate_s
//   run()  (only collect() left)  -> scenario.collect_s
// run_s is simulate + collect. The traced run checks that this split gives
// the same RunResult as a plain run(), samples one extra pass for layer
// attribution, and (mega_20k) probes the sharded executor at 1 and 2
// threads. Every reported time is calibrated to the nominal host speed
// (host_speed.hpp), sampled before each measured world.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "pinned_counters.hpp"
#include "sampler.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using p2p::core::AlgorithmKind;
using p2p::scenario::Parameters;
using p2p::scenario::RunResult;
using p2p::scenario::SimulationRun;

struct World {
  std::string name;
  Parameters params;
};

// The host-speed reference loop of a workload: the state array size that
// tracked the workload's own wall time best across host phases (mega_20k
// has a 225 MiB resident set, overlay_churn_500 a 35 MiB one with a small
// hot part), the loop's median time on a 4-vCPU Xeon VM as its nominal time,
// and how often it is sampled before each measured world (40-60 times in a
// 25 s run).
struct HostReference {
  std::size_t state_mib;
  double nominal_s;
  int samples_per_world;
};

HostReference host_reference_for(const std::string& workload) {
  if (workload == "mega_20k") return {128, 0.020, 8};
  return {4, 0.015, 3};
}

// Paper density: 50 nodes per 100 m x 100 m, side growing as sqrt(n).
Parameters paper_density(std::size_t nodes, double sim_seconds) {
  Parameters p;
  p.num_nodes = nodes;
  const double side = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
  p.area_width = side;
  p.area_height = side;
  p.duration_s = sim_seconds;
  p.seed = 7;
  p.routing_protocol = p2p::scenario::RoutingProtocol::kAodv;
  p.overlay_sample_interval_s = 0.0;
  return p;
}

// As bench/overlay_storm.cpp at 500 nodes: churn 3/h, 30 s downtime.
World overlay_world(const char* name, AlgorithmKind alg) {
  World w{name, paper_density(500, 1800.0)};
  w.params.algorithm = alg;
  w.params.fault.churn_rate_per_hour = 3.0;
  w.params.fault.mean_downtime_s = 30.0;
  return w;
}

// As bench/megascale.cpp at 20k nodes: Regular, fault-free, sequential.
World mega_world() {
  World w{"regular_20k", paper_density(20000, 90.0)};
  w.params.algorithm = AlgorithmKind::kRegular;
  w.params.join_stagger_s = 9.0;
  return w;
}

std::vector<World> worlds_for(const std::string& workload) {
  if (workload == "mega_20k") return {mega_world()};
  return {overlay_world("basic_500", AlgorithmKind::kBasic),
          overlay_world("regular_500", AlgorithmKind::kRegular),
          overlay_world("random_500", AlgorithmKind::kRandom),
          overlay_world("hybrid_500", AlgorithmKind::kHybrid)};
}

std::uint64_t queries_of(const RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& f : r.per_file) n += f.requests;
  return n;
}

std::uint64_t answers_of(const RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& f : r.per_file) n += f.answers_total;
  return n;
}

std::uint64_t answered_of(const RunResult& r) {
  std::uint64_t n = 0;
  for (const auto& f : r.per_file) n += f.answered;
  return n;
}

// Every integral outcome of a run, for exact equality between two ways of
// running the same world.
std::vector<std::uint64_t> fingerprint(const RunResult& r) {
  std::vector<std::uint64_t> v = {
      r.events_processed,        r.frames_transmitted,
      r.frames_delivered,        r.frames_lost,
      r.peak_queue_depth,        r.queue_pushes,
      r.queue_pops,              r.routing_control_messages,
      r.data_delivered,          r.data_dropped,
      r.payload_acquires,        r.payload_slab_allocs,
      r.churn_deaths,            r.churn_recoveries,
      r.connections_established, r.connections_closed,
      r.overlay_repairs,         r.orphaned_servents,
      r.masters,                 r.slaves};
  for (const auto& f : r.per_file) {
    v.insert(v.end(), {f.requests, f.answered, f.answers_total,
                       f.physical_samples, f.p2p_samples});
  }
  for (const auto& c : r.counters) {
    v.insert(v.end(), c.received.begin(), c.received.end());
  }
  return v;
}

bool matches_pinned(const World& w, const RunResult& r, std::string* why) {
  for (const auto& pin : kPinnedCounters) {
    if (pin.world != w.name) continue;
    const std::uint64_t got[] = {r.events_processed, r.frames_delivered,
                                 queries_of(r), answers_of(r),
                                 r.peak_queue_depth};
    const std::uint64_t want[] = {pin.events, pin.frames_delivered,
                                  pin.queries, pin.answers, pin.peak_queue};
    if (std::equal(std::begin(got), std::end(got), std::begin(want))) {
      return true;
    }
    *why = w.name + " counters events/frames_delivered/queries/answers/"
                    "peak_queue = " +
           std::to_string(got[0]) + "/" + std::to_string(got[1]) + "/" +
           std::to_string(got[2]) + "/" + std::to_string(got[3]) + "/" +
           std::to_string(got[4]) + ", pinned " + std::to_string(want[0]) +
           "/" + std::to_string(want[1]) + "/" + std::to_string(want[2]) +
           "/" + std::to_string(want[3]) + "/" + std::to_string(want[4]);
    return false;
  }
  *why = "no pinned counters for world " + w.name;
  return false;
}

struct WorldRun {
  RunResult result;
  double build_s = 0.0;
  double simulate_s = 0.0;
  double collect_s = 0.0;
  double latency_s = 0.0;  // construction to destruction
};

WorldRun run_split(const Parameters& params) {
  WorldRun out;
  const auto t0 = Clock::now();
  {
    SimulationRun run(params);
    const auto t1 = Clock::now();
    run.build();
    const auto t2 = Clock::now();
    run.simulator().run_until(params.duration_s);
    const auto t3 = Clock::now();
    out.result = run.run();  // the clock is at T: this only collects
    const auto t4 = Clock::now();
    out.build_s = seconds_between(t1, t2);
    out.simulate_s = seconds_between(t2, t3);
    out.collect_s = seconds_between(t3, t4);
  }
  out.latency_s = seconds_between(t0, Clock::now());
  return out;
}

double build_only(const Parameters& params) {
  SimulationRun run(params);
  const auto t0 = Clock::now();
  run.build();
  return seconds_between(t0, Clock::now());
}

struct Pass {
  double build_s = 0.0;
  double simulate_s = 0.0;
  double collect_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t queries = 0;
  std::vector<double> latencies_ms;  // one per world
  double run_s() const { return simulate_s + collect_s; }
};

class SimBench {
 public:
  SimBench(const RunConfig& config, Report* report)
      : config_(config),
        report_(report),
        worlds_(worlds_for(config.workload)),
        results_(worlds_.size()),
        rng_(config.seed),
        host_reference_(host_reference_for(config.workload)),
        host_(host_reference_.state_mib, host_reference_.nominal_s) {}

  void run() {
    measured_loop();
    report_end_to_end();
    if (!config_.trace) return;
    traced_pass();
    split_self_check();
    report_counts();
    if (config_.workload == "mega_20k") sharded_probe();
  }

 private:
  Pass run_pass(const std::vector<std::size_t>& order, bool sample_host) {
    Pass pass;
    for (const std::size_t i : order) {
      // Between worlds, where the reference loop's cache footprint costs
      // the next world nothing it would not pay anyway.
      for (int k = 0; sample_host && k < host_reference_.samples_per_world;
           ++k) {
        host_.sample();
      }
      WorldRun wr = run_split(worlds_[i].params);
      std::string why;
      report_->check(matches_pinned(worlds_[i], wr.result, &why), why);
      pass.build_s += wr.build_s;
      pass.simulate_s += wr.simulate_s;
      pass.collect_s += wr.collect_s;
      pass.wall_s += wr.latency_s;
      pass.events += wr.result.events_processed;
      pass.queries += queries_of(wr.result);
      pass.latencies_ms.push_back(wr.latency_s * 1e3);
      if (results_[i].num_nodes == 0) results_[i] = std::move(wr.result);
    }
    return pass;
  }

  std::vector<std::size_t> seeded_order() {
    std::vector<std::size_t> order(worlds_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[splitmix64(&rng_) % i]);
    }
    return order;
  }

  // Whole passes over every world until the budget is spent, then extra
  // build-only repetitions so setup_s is a median of at least
  // kSetupSamples set-ups.
  void measured_loop() {
    const auto start = Clock::now();
    do {
      passes_.push_back(run_pass(seeded_order(), true));
    } while (seconds_between(start, Clock::now()) < config_.seconds);
    for (const Pass& p : passes_) setups_.push_back(p.build_s);
    while (setups_.size() < kSetupSamples) {
      double s = 0.0;
      for (const World& w : worlds_) s += build_only(w.params);
      setups_.push_back(s);
    }
    peak_rss_mb_ = peak_rss_mb();
    report_->check(host_.ok(), "host speed reference process failed");
    speed_ = host_.factor();
  }

  void report_end_to_end() {
    // A pass is one batch of requests (one world each): its latency
    // percentiles are taken per pass, then the median over passes.
    std::vector<double> run_s, events_rate, query_rate, request_rate, p50, p99;
    std::size_t samples = 0;
    for (const Pass& p : passes_) {
      p50.push_back(percentile(p.latencies_ms, 0.50) * speed_);
      p99.push_back(percentile(p.latencies_ms, 0.99) * speed_);
      samples += p.latencies_ms.size();
      const double calibrated_run_s = p.run_s() * speed_;
      run_s.push_back(calibrated_run_s);
      events_rate.push_back(static_cast<double>(p.events) / calibrated_run_s);
      query_rate.push_back(static_cast<double>(p.queries) / calibrated_run_s);
      request_rate.push_back(static_cast<double>(worlds_.size()) /
                             (p.wall_s * speed_));
    }
    untraced_run_s_ = median(run_s);
    std::uint64_t requests = 0, answered = 0;
    for (const RunResult& r : results_) {
      requests += queries_of(r);
      answered += answered_of(r);
    }
    report_->set("setup_s", median(setups_) * speed_, "s");
    report_->set("run_s", untraced_run_s_, "s");
    report_->set("events_per_s", median(events_rate), "1/s");
    report_->set("queries_per_s", median(query_rate), "1/s");
    report_->set("requests_per_s", median(request_rate), "1/s");
    report_->set("latency_p50_ms", median(p50), "ms");
    report_->set("latency_p99_ms", median(p99), "ms");
    report_->set("peak_rss_mb", peak_rss_mb_, "MiB");
    report_->set("query_success",
                 requests == 0 ? 0.0
                               : static_cast<double>(answered) /
                                     static_cast<double>(requests),
                 "ratio");
    report_->set("latency.samples", static_cast<double>(samples), "count");
    report_->set("host.speed", speed_, "ratio");
    report_->set("host.samples", static_cast<double>(host_.samples()),
                 "count");
  }

  // One more pass in declaration order with the sampler on; its spans are
  // the per-layer timings and its run_s over the untraced median is the
  // tracing overhead.
  void traced_pass() {
    std::vector<std::size_t> order(worlds_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::string path = config_.work_dir + "/profile_main.txt";
    Sampler::start(kSampleIntervalUs);
    const Pass pass = run_pass(order, false);
    const std::size_t samples = Sampler::stop(path);
    report_->add_profile("main", path);
    report_->set("scenario.build_s", pass.build_s * speed_, "s");
    report_->set("scenario.simulate_s", pass.simulate_s * speed_, "s");
    report_->set("scenario.collect_s", pass.collect_s * speed_, "s");
    report_->set("trace.samples", static_cast<double>(samples), "count");
    report_->set("trace.overhead", pass.run_s() * speed_ / untraced_run_s_,
                 "ratio");
    report_->set("trace.span_ratio",
                 (pass.build_s + pass.run_s()) * speed_ /
                     (median(setups_) * speed_ + untraced_run_s_),
                 "ratio");
  }

  // The build / run_until / run split must not change what a run computes.
  void split_self_check() {
    for (std::size_t i = 0; i < worlds_.size(); ++i) {
      SimulationRun run(worlds_[i].params);
      const RunResult plain = run.run();
      report_->check(fingerprint(plain) == fingerprint(results_[i]),
                     worlds_[i].name +
                         ": split run differs from a plain run()");
    }
  }

  void report_counts() {
    RunResult sum;
    std::uint64_t connect = 0, ping = 0, query = 0, queries = 0, answers = 0;
    std::size_t peak_queue = 0, net_mem = 0, routing_mem = 0, core_mem = 0;
    for (const RunResult& r : results_) {
      sum.events_processed += r.events_processed;
      sum.queue_pushes += r.queue_pushes;
      sum.queue_pops += r.queue_pops;
      sum.queue_tombstones_purged += r.queue_tombstones_purged;
      sum.frames_transmitted += r.frames_transmitted;
      sum.frames_delivered += r.frames_delivered;
      sum.frames_lost += r.frames_lost;
      sum.payload_acquires += r.payload_acquires;
      sum.payload_slab_allocs += r.payload_slab_allocs;
      sum.routing_control_messages += r.routing_control_messages;
      sum.data_delivered += r.data_delivered;
      sum.data_dropped += r.data_dropped;
      sum.connections_established += r.connections_established;
      sum.churn_deaths += r.churn_deaths;
      sum.churn_recoveries += r.churn_recoveries;
      for (const auto& c : r.counters) {
        connect += c.connect_received();
        ping += c.ping_received();
        query += c.query_received();
      }
      queries += queries_of(r);
      answers += answers_of(r);
      peak_queue = std::max(peak_queue, r.peak_queue_depth);
      net_mem = std::max(net_mem, r.net_memory_bytes);
      routing_mem = std::max(routing_mem, r.routing_memory_bytes);
      core_mem = std::max(core_mem, r.servent_memory_bytes);
    }
    const auto ratio = [](double a, double b) {
      return b == 0.0 ? 0.0 : a / b;
    };
    const auto d = [](auto v) { return static_cast<double>(v); };
    const auto mb = [](std::size_t bytes) {
      return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    Report& r = *report_;
    r.set("sim.events", d(sum.events_processed), "count");
    r.set("sim.queue_pushes", d(sum.queue_pushes), "count");
    r.set("sim.queue_pops", d(sum.queue_pops), "count");
    r.set("sim.tombstones_purged", d(sum.queue_tombstones_purged), "count");
    r.set("sim.peak_queue", d(peak_queue), "count");
    r.set("net.frames_tx", d(sum.frames_transmitted), "count");
    r.set("net.frames_delivered", d(sum.frames_delivered), "count");
    r.set("net.frames_lost", d(sum.frames_lost), "count");
    r.set("net.delivery_ratio",
          ratio(d(sum.frames_delivered),
                d(sum.frames_delivered + sum.frames_lost)),
          "ratio");
    r.set("net.fanout",
          ratio(d(sum.frames_delivered), d(sum.frames_transmitted)), "ratio");
    r.set("net.payload_acquires", d(sum.payload_acquires), "count");
    r.set("net.payload_slab_allocs", d(sum.payload_slab_allocs), "count");
    r.set("routing.control_msgs", d(sum.routing_control_messages), "count");
    r.set("routing.data_delivery_ratio",
          ratio(d(sum.data_delivered),
                d(sum.data_delivered + sum.data_dropped)),
          "ratio");
    r.set("core.connect_msgs", d(connect), "count");
    r.set("core.ping_msgs", d(ping), "count");
    r.set("core.query_msgs", d(query), "count");
    r.set("core.connections_established", d(sum.connections_established),
          "count");
    r.set("core.answers_per_query", ratio(d(answers), d(queries)), "ratio");
    r.set("fault.deaths", d(sum.churn_deaths), "count");
    r.set("fault.recoveries", d(sum.churn_recoveries), "count");
    r.set("net.mem_mb", mb(net_mem), "MiB");
    r.set("routing.mem_mb", mb(routing_mem), "MiB");
    r.set("core.mem_mb", mb(core_mem), "MiB");
  }

  // The mega world with a pinned 16-shard model, executed at 1 and 2
  // threads. Both must compute the same result; the 2-thread run is
  // sampled on its own so the executor and barrier show as sim.sharded.
  void sharded_probe() {
    Parameters p = worlds_.front().params;
    p.sim_shards = 16;
    std::vector<std::uint64_t> prints[2];
    double seconds[2] = {0.0, 0.0};
    std::uint64_t events = 0;
    for (int t = 0; t < 2; ++t) {
      p.sim_threads = static_cast<std::size_t>(t + 1);
      SimulationRun run(p);
      run.build();
      const std::string path = config_.work_dir + "/profile_sharded_t2.txt";
      if (t == 1) Sampler::start(kSampleIntervalUs);
      const auto t0 = Clock::now();
      const RunResult r = run.run();
      seconds[t] = seconds_between(t0, Clock::now());
      if (t == 1) {
        Sampler::stop(path);
        report_->add_profile("sharded_t2", path);
      }
      prints[t] = fingerprint(r);
      events = r.events_processed;
    }
    report_->check(prints[0] == prints[1],
                   "sharded run differs between 1 and 2 threads");
    report_->set("sim.sharded.events_per_s_t1",
                 static_cast<double>(events) / (seconds[0] * speed_), "1/s");
    report_->set("sim.sharded.events_per_s_t2",
                 static_cast<double>(events) / (seconds[1] * speed_), "1/s");
    report_->set("sim.sharded.speedup_t2", seconds[0] / seconds[1], "ratio");
  }

  static constexpr std::size_t kSetupSamples = 41;

  const RunConfig& config_;
  Report* report_;
  std::vector<World> worlds_;
  std::vector<RunResult> results_;  // first result of each world
  std::uint64_t rng_;
  std::vector<Pass> passes_;
  std::vector<double> setups_;
  HostReference host_reference_;
  HostSpeed host_;
  double speed_ = 1.0;            // host_.factor() of the measured loop
  double untraced_run_s_ = 0.0;  // calibrated
  double peak_rss_mb_ = 0.0;
};

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "overlay_churn_500" || name == "mega_20k";
}

void run_sim_workload(const RunConfig& config, Report* report) {
  SimBench(config, report).run();
}

}  // namespace perfbench
