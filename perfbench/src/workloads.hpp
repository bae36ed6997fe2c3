// The benchmark's workloads. Each runs for a wall-clock budget, checks every
// output it produces, and records its metrics into a Report.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;  // drives the generated inputs, never the timing
  double seconds = 10.0;   // measured-loop budget
  bool trace = false;      // add the per-layer pass (spans, counts, samples)
  std::string work_dir;    // profiles, sockets and caches go here
  std::string p2pd;        // daemon binary (serve workload)
};

/// overlay_churn_500 and mega_20k.
bool is_sim_workload(const std::string& name);
void run_sim_workload(const RunConfig& config, Report* report);

/// serve_mixed.
void run_serve_workload(const RunConfig& config, Report* report);

/// SIGPROF period of the traced passes (process CPU time).
inline constexpr int kSampleIntervalUs = 1000;

/// splitmix64: the portable stream behind every seeded input choice.
inline std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
