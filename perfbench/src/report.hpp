// Result accumulation for one benchmark invocation: the outcome counters
// (attempted / failed operations), the named metrics, and the profile files
// the traced run leaves for perfbench/run.py to attribute.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, `q` in (0, 1]; 0 when empty. With fewer than
/// 1/(1-q) samples this is the maximum.
double percentile(std::vector<double> v, double q);

/// Peak resident set of this process in MiB (getrusage high-water mark).
double peak_rss_mb();

class Report {
 public:
  /// One checked operation; `ok` false counts it as failed and logs `what`
  /// to stderr.
  void check(bool ok, const std::string& what);

  void set(const std::string& name, double value, const std::string& unit);

  /// A profile file written by the sampler, keyed by its window's name.
  void add_profile(const std::string& window, const std::string& path);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// One JSON object: correct/attempted/failed/metrics/profiles.
  std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> profiles_;
};

}  // namespace perfbench
