// p2pmanet_sim — run one P2P-over-MANET scenario end to end.
//
//   p2pmanet_sim [--config FILE.ini] [--trace FILE.tr] [--csv PREFIX]
//                [--seeds N] [--threads N] [--progress] [--telemetry]
//                [key=value ...]
//
// With --seeds N > 1 the scenario is repeated across seeds (paper
// methodology) and aggregated results are reported with 95% CIs;
// otherwise a single run is executed and per-node detail is printed.
// --trace writes an ns-2-style packet trace (single-run, sequential mode
// only; rejected with exit 2 otherwise).
// --csv writes <PREFIX>_curves.csv and <PREFIX>_ranks.csv for plotting.
// --progress logs each finished seed with wall time and events/sec;
// --telemetry prints the JSONL run manifest (docs/determinism.md) after
// the experiment.
#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/factory.hpp"
#include "net/network.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "scenario/telemetry.hpp"
#include "stats/table.hpp"
#include "trace/trace.hpp"
#include "util/config.hpp"

namespace {

using namespace p2p;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--config FILE.ini] [--trace FILE.tr] [--csv PREFIX]\n"
         "       [--seeds N] [--threads N] [--progress] [--telemetry]\n"
         "       [key=value ...]\n\n"
         "common keys: algorithm=basic|regular|random|hybrid num_nodes=50\n"
         "  duration_s=3600 seed=1 p2p_fraction=0.75 mobility=waypoint|\n"
         "  direction|gauss_markov routing_protocol=aodv|dsdv|dsr\n"
         "  maxnconn=3 ...\n";
  return 2;
}

void print_single_run(scenario::SimulationRun& run,
                      const scenario::RunResult& result) {
  std::cout << "frames: " << result.frames_transmitted << " tx, "
            << result.frames_delivered << " delivered, " << result.frames_lost
            << " lost\n"
            << "energy: " << result.energy_consumed_j << " J total\n"
            << "routing control messages: " << result.routing_control_messages
            << "\n"
            << "events processed: " << result.events_processed << "\n";
  if (result.masters + result.slaves > 0) {
    std::cout << "hybrid roles: " << result.masters << " masters, "
              << result.slaves << " slaves\n";
  }
  if (result.churn_deaths > 0) {
    std::cout << "churn: " << result.churn_deaths << " node failures, "
              << result.churn_recoveries << " recoveries\n";
  }
  if (result.link_blackouts + result.loss_bursts > 0) {
    std::cout << "link faults: " << result.link_blackouts << " blackouts, "
              << result.loss_bursts << " loss bursts\n";
  }
  if (result.overlay_disrupted_s > 0.0 || result.orphaned_servents > 0) {
    std::cout << "overlay disruption: " << result.overlay_disrupted_s
              << " s, " << result.overlay_repairs << " repairs, "
              << result.orphaned_servents << " orphans\n";
  }
  if (result.invariant_violations > 0) {
    std::cout << "INVARIANT VIOLATIONS: " << result.invariant_violations
              << " (simulator bug — see docs/faults.md)\n";
  }
  std::cout << "overlay: " << result.overlay_final.edges << " edges, C="
            << result.overlay_final.clustering
            << ", L=" << result.overlay_final.path_length << ", "
            << result.overlay_final.components << " components\n\n";

  stats::Table per_node({"member", "node", "conns", "connect rx", "ping rx",
                         "query rx", "queries sent"});
  for (std::size_t i = 0; i < run.member_count(); ++i) {
    const auto& servent = run.servent(i);
    per_node.add_row({std::to_string(i), std::to_string(servent.self()),
                      std::to_string(servent.connections().size()),
                      std::to_string(servent.counters().connect_received()),
                      std::to_string(servent.counters().ping_received()),
                      std::to_string(servent.counters().query_received()),
                      std::to_string(servent.queries_sent())});
  }
  per_node.print(std::cout);

  std::cout << "\nper-file search quality:\n";
  stats::Table per_file(
      {"rank", "requests", "answered %", "answers/req", "min dist"});
  for (std::size_t k = 0; k < result.per_file.size(); ++k) {
    const auto& f = result.per_file[k];
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", 100.0 * f.answered_fraction());
    std::string answered = buf;
    std::snprintf(buf, sizeof buf, "%.2f", f.answers_per_request());
    std::string answers = buf;
    std::snprintf(buf, sizeof buf, "%.2f", f.mean_min_physical());
    per_file.add_row({std::to_string(k + 1), std::to_string(f.requests),
                      answered, answers, buf});
  }
  per_file.print(std::cout);
}

bool write_experiment_csv(const scenario::ExperimentResult& result,
                          const std::string& prefix) {
  stats::Table curves({"rank", "connect_mean", "connect_ci95", "ping_mean",
                       "ping_ci95", "query_mean", "query_ci95"});
  for (std::size_t i = 0; i < result.connect_curve.points(); ++i) {
    curves.add_row_values(
        {static_cast<double>(i + 1), result.connect_curve.mean_at(i),
         result.connect_curve.ci95_at(i), result.ping_curve.mean_at(i),
         result.ping_curve.ci95_at(i), result.query_curve.mean_at(i),
         result.query_curve.ci95_at(i)});
  }
  stats::Table ranks({"file_rank", "answers_mean", "answers_ci95",
                      "distance_mean", "distance_ci95", "answered_frac"});
  for (std::size_t k = 0; k < result.ranks.size(); ++k) {
    const auto& r = result.ranks[k];
    ranks.add_row_values({static_cast<double>(k + 1),
                          r.answers_per_request.mean(),
                          r.answers_per_request.ci95_halfwidth(),
                          r.min_distance.mean(),
                          r.min_distance.ci95_halfwidth(),
                          r.answered_fraction.mean()});
  }
  return curves.write_csv(prefix + "_curves.csv") &&
         ranks.write_csv(prefix + "_ranks.csv");
}

}  // namespace

int main(int argc, char** argv) {
  util::Config config;
  std::string trace_path;
  std::string csv_prefix;
  std::size_t seeds = 1;
  std::size_t threads = 0;
  bool progress = false;
  bool telemetry = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0]);
    if (arg == "--config") {
      const char* path = next();
      if (path == nullptr) return usage(argv[0]);
      std::ifstream file(path);
      if (!file) {
        std::cerr << "cannot open config file: " << path << "\n";
        return 1;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      std::string error;
      if (!config.parse_ini(buffer.str(), &error)) {
        std::cerr << path << ": " << error << "\n";
        return 1;
      }
      continue;
    }
    if (arg == "--trace") {
      const char* path = next();
      if (path == nullptr) return usage(argv[0]);
      trace_path = path;
      continue;
    }
    if (arg == "--csv") {
      const char* path = next();
      if (path == nullptr) return usage(argv[0]);
      csv_prefix = path;
      continue;
    }
    if (arg == "--seeds") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      char* end = nullptr;
      seeds = static_cast<std::size_t>(std::strtoul(n, &end, 10));
      if (end == n || *end != '\0' || seeds == 0) return usage(argv[0]);
      continue;
    }
    if (arg == "--threads") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      char* end = nullptr;
      threads = static_cast<std::size_t>(std::strtoul(n, &end, 10));
      if (end == n || *end != '\0') return usage(argv[0]);
      continue;
    }
    if (arg == "--progress") {
      progress = true;
      continue;
    }
    if (arg == "--telemetry") {
      telemetry = true;
      continue;
    }
    std::string error;
    if (!config.parse_override(arg, &error)) {
      std::cerr << "bad argument '" << arg << "': " << error << "\n";
      return usage(argv[0]);
    }
  }

  scenario::Parameters params;
  if (const std::string error = params.apply(config); !error.empty()) {
    std::cerr << "bad parameter: " << error << "\n";
    return 1;
  }
  // The packet trace hooks the one sequential Network: a multi-seed run
  // has no single network, and sharded lanes take no observer.
  if (!trace_path.empty() && seeds > 1) {
    std::cerr << "--trace requires single-run mode (no --seeds N > 1)\n";
    return 2;
  }
  if (!trace_path.empty() && params.effective_sim_shards() > 1) {
    std::cerr << "--trace requires sequential execution (sim_shards <= 1)\n";
    return 2;
  }

  std::cout << "p2pmanet_sim — " << params.summary() << "\n\n";

  if (seeds > 1) {
    scenario::RunTelemetry run_telemetry;
    std::atomic<std::size_t> completed{0};
    const auto on_run_done = [&](std::size_t seed_index, std::size_t total) {
      const std::size_t done = completed.fetch_add(1) + 1;
      if (progress) {
        // Telemetry slot `seed_index` is filled before this fires.
        const auto& t = run_telemetry.per_seed()[seed_index];
        std::ostringstream line;  // single write: lines from workers don't interleave
        line << "seed " << t.seed << " done (" << done << "/" << total
             << "): " << t.wall_seconds << " s, " << t.events_per_sec
             << " events/s, " << t.frames_transmitted << " frames tx\n";
        std::cerr << line.str();
      } else {
        std::cerr << "\rrun " << done << "/" << total << std::flush;
      }
    };
    const auto result =
        scenario::run_experiment(params, seeds, threads, on_run_done,
                                 &run_telemetry);
    if (!progress) std::cerr << "\n";
    std::cout << "aggregated over " << result.runs << " seeds:\n"
              << "  frames tx: " << result.frames_transmitted.mean() << " ± "
              << result.frames_transmitted.ci95_halfwidth() << "\n"
              << "  energy J: " << result.energy_consumed_j.mean() << " ± "
              << result.energy_consumed_j.ci95_halfwidth() << "\n"
              << "  overlay clustering: " << result.overlay_clustering.mean()
              << ", path length: " << result.overlay_path_length.mean()
              << "\n";
    if (telemetry) {
      std::cout << "\nrun manifest (JSONL):\n" << run_telemetry.to_jsonl();
    }
    if (!csv_prefix.empty() && !write_experiment_csv(result, csv_prefix)) {
      std::cerr << "failed to write CSVs with prefix " << csv_prefix << "\n";
      return 1;
    }
    return 0;
  }
  if (telemetry) {
    std::cerr << "--telemetry requires --seeds N > 1\n";
    return 2;
  }

  scenario::SimulationRun run(params);
  run.build();

  std::ofstream trace_file;
  std::unique_ptr<trace::Writer> writer;
  std::unique_ptr<trace::NetworkAdapter> adapter;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open trace file: " << trace_path << "\n";
      return 1;
    }
    writer = std::make_unique<trace::Writer>(trace_file);
    adapter = std::make_unique<trace::NetworkAdapter>(*writer);
    run.network().set_observer(adapter.get());
  }

  const auto result = run.run();
  print_single_run(run, result);
  if (!trace_path.empty()) {
    std::cout << "\npacket trace written to " << trace_path << "\n";
  }
  return 0;
}
