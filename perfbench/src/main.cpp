// perfbench — the repository benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work DIR [--p2pd PATH]
//
// Runs one workload and prints one JSON object on stdout:
// {"correct","attempted","failed","metrics","profiles"}. perfbench/run.py
// builds this binary, runs it, attributes the profiles to layers and
// prints the final result line.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload overlay_churn_500|mega_20k|"
               "serve_mixed --seed N --seconds S --trace 0|1 --work DIR "
               "[--p2pd PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work") {
      config.work_dir = value;
    } else if (key == "--p2pd") {
      config.p2pd = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.work_dir.empty() || !(config.seconds > 0.0)) {
    return usage();
  }

  perfbench::Report report;
  if (perfbench::is_sim_workload(config.workload)) {
    perfbench::run_sim_workload(config, &report);
  } else if (config.workload == "serve_mixed" && !config.p2pd.empty()) {
    perfbench::run_serve_workload(config, &report);
  } else {
    return usage();
  }
  const double ok = 1.0 - static_cast<double>(report.failed()) /
                              static_cast<double>(report.attempted());
  report.set("ok_rate", ok, "ratio");
  report.set("error_rate", 1.0 - ok, "ratio");
  std::cout << report.to_json() << std::endl;
  return 0;
}
