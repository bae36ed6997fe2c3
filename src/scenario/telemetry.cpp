#include "scenario/telemetry.hpp"

#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace p2p::scenario {

void RunTelemetry::reset(std::size_t num_seeds) {
  seeds_.assign(num_seeds, SeedTelemetry{});
  threads_used_ = 0;
  total_wall_seconds_ = 0.0;
}

void RunTelemetry::set(std::size_t seed_index, const SeedTelemetry& t) {
  P2P_ASSERT(seed_index < seeds_.size());
  seeds_[seed_index] = t;
}

double RunTelemetry::aggregate_events_per_sec() const noexcept {
  std::uint64_t events = 0;
  double wall = 0.0;
  for (const auto& s : seeds_) {
    events += s.events_processed;
    wall += s.wall_seconds;
  }
  return wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
}

namespace {

/// Shared body of the per-seed line, and the one place that names each
/// counter on the wire; `os` carries the manifest's fixed 6-digit float
/// formatting so both callers emit identical bytes.
void write_seed_line(std::ostream& os, const SeedTelemetry& s,
                     bool include_timing) {
  os << "{\"type\":\"seed\",\"index\":" << s.seed_index
     << ",\"seed\":" << s.seed;
  if (include_timing) os << ",\"wall_s\":" << s.wall_seconds;
  os << ",\"events\":" << s.events_processed;
  if (include_timing) os << ",\"events_per_sec\":" << s.events_per_sec;
  os << ",\"frames_tx\":" << s.frames_transmitted
     << ",\"frames_rx\":" << s.frames_delivered
     << ",\"frames_lost\":" << s.frames_lost
     << ",\"peak_queue_depth\":" << s.peak_queue_depth
     << ",\"queue_pushes\":" << s.queue_pushes
     << ",\"queue_pops\":" << s.queue_pops
     << ",\"queue_tombstones_purged\":" << s.queue_tombstones_purged
     << ",\"queue_compactions\":" << s.queue_compactions
     << ",\"queue_ladder_spills\":" << s.queue_ladder_spills
     << ",\"queue_ladder_rebuckets\":" << s.queue_ladder_rebuckets
     << ",\"queue_peak_raw\":" << s.queue_peak_raw
     << ",\"payload_acquires\":" << s.payload_acquires
     << ",\"payload_slab_allocs\":" << s.payload_slab_allocs
     << ",\"payload_peak_live\":" << s.payload_peak_live
     << ",\"net_memory_bytes\":" << s.net_memory_bytes
     << ",\"routing_memory_bytes\":" << s.routing_memory_bytes
     << ",\"servent_memory_bytes\":" << s.servent_memory_bytes
     << ",\"churn_deaths\":" << s.churn_deaths
     << ",\"invariant_violations\":" << s.invariant_violations
     << ",\"overlay_disrupted_s\":" << s.overlay_disrupted_s << "}";
}

}  // namespace

std::string seed_line_json(const SeedTelemetry& seed, bool include_timing) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  write_seed_line(os, seed, include_timing);
  return os.str();
}

std::string RunTelemetry::to_jsonl() const {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\"type\":\"experiment\",\"seeds\":" << seeds_.size()
     << ",\"threads\":" << threads_used_
     << ",\"wall_s\":" << total_wall_seconds_
     << ",\"events_per_sec\":" << aggregate_events_per_sec();
  if (!cache_key_.empty()) os << ",\"cache_key\":\"" << cache_key_ << "\"";
  os << "}\n";
  for (const auto& s : seeds_) {
    write_seed_line(os, s, /*include_timing=*/true);
    os << "\n";
  }
  return os.str();
}

bool RunTelemetry::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_jsonl();
  return static_cast<bool>(os);
}

}  // namespace p2p::scenario
