// Full-stack overlay storm: the missing bench tier above hotpath.cpp
// (kernel + raw wireless storms) and aodv_storm.cpp (route discovery).
//
// Workload shape: a complete scenario::SimulationRun — servents running one
// of the four (re)configuration algorithms over AODV + controlled flood,
// with the paper's Zipf query workload and node churn forcing continuous
// reconfiguration. Density matches the paper (side scales with sqrt(n)),
// so 150 nodes is the paper's large scenario and 500 nodes is the
// ROADMAP's past-the-paper scale point.
//
// Headline unit: completed queries per wall second (the overlay layer's
// end-to-end throughput). Secondary fixed-seed counters ride along so the
// bench_guard ctest can pin behavior: answers, connect msgs, total overlay
// msgs received, frames_delivered, events, peak_queue. Records are named
// "overlay_storm.<alg>_<nodes>" (full scale) / "overlay_storm.<alg>"
// (--smoke).
//
// Usage: overlay_storm [--label NAME] [--out FILE] [--smoke] [--repeat N]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "perf_record.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"

namespace {

using namespace p2p;
using bench::Clock;
using bench::Options;
using bench::Record;

const char* alg_slug(core::AlgorithmKind alg) {
  switch (alg) {
    case core::AlgorithmKind::kBasic: return "basic";
    case core::AlgorithmKind::kRegular: return "regular";
    case core::AlgorithmKind::kRandom: return "random";
    case core::AlgorithmKind::kHybrid: return "hybrid";
  }
  return "?";
}

scenario::Parameters make_params(core::AlgorithmKind alg, std::size_t nodes,
                                 double sim_seconds) {
  scenario::Parameters p;
  p.algorithm = alg;
  p.num_nodes = nodes;
  // Keep the paper's node density (50 nodes per 100 m x 100 m).
  const double side = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
  p.area_width = side;
  p.area_height = side;
  p.duration_s = sim_seconds;
  p.seed = 7;  // fixed seed: every counter below must be reproducible
  // Churn keeps the reconfiguration machinery hot: each node crashes about
  // every 20 simulated minutes and is reborn half a minute later.
  p.fault.churn_rate_per_hour = 3.0;
  p.fault.mean_downtime_s = 30.0;
  // Measurement-only machinery off: this bench times the message path, not
  // the O(n + m) graph analysis of the overlay sampler.
  p.overlay_sample_interval_s = 0.0;
  return p;
}

Record bench_overlay_storm(const std::string& bench_name,
                           core::AlgorithmKind alg, std::size_t nodes,
                           double sim_seconds, int repeat) {
  Record rec;
  rec.bench = bench_name;
  rec.ops_name = "queries";
  rec.wall_s = 1e100;
  const scenario::Parameters params = make_params(alg, nodes, sim_seconds);
  for (int r = 0; r < repeat; ++r) {
    scenario::SimulationRun run(params);
    const auto start = Clock::now();
    const scenario::RunResult result = run.run();
    rec.wall_s = std::min(rec.wall_s, bench::seconds_since(start));

    std::uint64_t queries = 0, answers = 0;
    for (const auto& f : result.per_file) {
      queries += f.requests;
      answers += f.answers_total;
    }
    std::uint64_t connect_msgs = 0, msgs = 0;
    for (const auto& c : result.counters) {
      connect_msgs += c.connect_received();
      for (const auto n : c.received) msgs += n;
    }
    rec.ops = queries;
    rec.extras = {{"answers", answers, false},
                  {"connect_msgs", connect_msgs, false},
                  {"msgs", msgs, true}};
    rec.events = result.events_processed;
    rec.frames_delivered = result.frames_delivered;
    rec.peak_queue = result.peak_queue_depth;
    rec.sim_time_s = sim_seconds;
  }
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = bench::parse_options(argc, argv, /*allow_suite=*/false);
  const core::AlgorithmKind algs[] = {
      core::AlgorithmKind::kBasic, core::AlgorithmKind::kRegular,
      core::AlgorithmKind::kRandom, core::AlgorithmKind::kHybrid};
  if (opt.smoke) {
    // Tiny scale for ctest / bench_guard: one scenario per algorithm.
    for (const auto alg : algs) {
      const std::string name = std::string("overlay_storm.") + alg_slug(alg);
      bench::emit(bench_overlay_storm(name, alg, 40, 120.0, opt.repeat), opt);
    }
    return 0;
  }
  for (const auto alg : algs) {
    for (const std::size_t nodes : {std::size_t{150}, std::size_t{500}}) {
      // Full paper duration at 150 nodes; half an hour at 500 keeps the
      // whole tier (x3 repeats) under a minute of wall time per label.
      const double sim_s = nodes >= 500 ? 1800.0 : 3600.0;
      const std::string name = std::string("overlay_storm.") + alg_slug(alg) +
                               "_" + std::to_string(nodes);
      bench::emit(bench_overlay_storm(name, alg, nodes, sim_s, opt.repeat),
                  opt);
    }
  }
  return 0;
}
