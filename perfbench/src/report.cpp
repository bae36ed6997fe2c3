#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "util/json.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::add_profile(const std::string& window, const std::string& path) {
  profiles_.push_back({window, path});
}

std::string Report::to_json() const {
  using p2p::util::append_json_string;
  std::string out = "{\"correct\":";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i > 0) out += ",";
    append_json_string(&out, name);
    // Non-finite values (a rate over a zero span) are not JSON numbers.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += ":{\"value\":";
    out += num;
    out += ",\"unit\":";
    append_json_string(&out, vu.second);
    out += "}";
  }
  out += "},\"profiles\":{";
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(&out, profiles_[i].first);
    out += ":";
    append_json_string(&out, profiles_[i].second);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
