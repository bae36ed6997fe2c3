// Churn survival: run the four (re)configuration algorithms through the
// deterministic fault injector (docs/faults.md) and compare how each
// overlay survives node churn, link blackouts, and loss bursts.
//
//   $ ./churn_survival [key=value ...]
//
// e.g. ./churn_survival churn_rate=4 mean_downtime=120
//      ./churn_survival algorithm=regular seed=7 loss_burst_rate=12
//
// The invariant checker runs throughout; a non-zero violation count
// means a simulator bug, never a result.
#include <iostream>

#include "core/factory.hpp"
#include "scenario/run.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace p2p;

  util::Config config;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (!config.parse_override(argv[i], &error)) {
      std::cerr << "bad argument '" << argv[i] << "': " << error << "\n";
      return 1;
    }
  }

  scenario::Parameters base;
  base.num_nodes = 50;
  base.duration_s = 900.0;
  base.fault.churn_rate_per_hour = 12.0;  // each node dies ~3x per run
  base.fault.mean_downtime_s = 60.0;
  base.fault.blackout_rate_per_hour = 20.0;
  base.fault.burst_rate_per_hour = 6.0;
  base.invariant_check_interval_s = 30.0;
  if (const std::string error = base.apply(config); !error.empty()) {
    std::cerr << "bad parameter: " << error << "\n";
    return 1;
  }

  std::vector<core::AlgorithmKind> algorithms;
  if (config.get_string("algorithm")) {
    algorithms.push_back(base.algorithm);
  } else {
    algorithms = {core::AlgorithmKind::kBasic, core::AlgorithmKind::kRegular,
                  core::AlgorithmKind::kRandom, core::AlgorithmKind::kHybrid};
  }

  std::cout << "p2pmanet churn survival — " << base.num_nodes << " nodes, "
            << base.num_members() << " p2p members, " << base.duration_s
            << " s, churn " << base.fault.churn_rate_per_hour
            << "/node/h, downtime " << base.fault.mean_downtime_s << " s\n\n";

  stats::Table table({"algorithm", "deaths", "reborn", "blackouts", "bursts",
                      "success %", "disrupted s", "repairs", "orphans",
                      "violations"});
  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };
  for (const auto kind : algorithms) {
    scenario::Parameters params = base;
    params.algorithm = kind;
    scenario::SimulationRun run(params);
    const scenario::RunResult result = run.run();
    table.add_row({core::algorithm_name(kind),
                   std::to_string(result.churn_deaths),
                   std::to_string(result.churn_recoveries),
                   std::to_string(result.link_blackouts),
                   std::to_string(result.loss_bursts),
                   fmt(100.0 * result.query_success_rate()),
                   fmt(result.overlay_disrupted_s),
                   std::to_string(result.overlay_repairs),
                   std::to_string(result.orphaned_servents),
                   std::to_string(result.invariant_violations)});
  }
  table.print(std::cout);
  std::cout << "\n'disrupted' counts time some live member could not reach "
               "another over the\nreference graph; 'orphans' are live members "
               "with zero references at the end.\nSame seed + same fault "
               "knobs => the same deaths at the same times, for any\nthread "
               "count (docs/faults.md).\n";
  return 0;
}
