// Serving-daemon front-end throughput: requests/s against a warm cache.
//
// Drives the real protocol stack (Session -> Scheduler -> seed cache) in
// process, with the compute path warmed out of the way first — so the
// measured loop is exactly the daemon's steady state for repeated
// identical experiments: JSON parse, config validation, canonical-key
// hashing, checksummed cache read, response assembly. Record format and
// flags match the other perf binaries (perf_record.hpp); the headline is
// requests_per_sec.
#include <string>

#include "perf_record.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace {

using namespace p2p;

int run(const bench::Options& opt) {
  const int requests = opt.smoke ? 100 : 2000;
  const std::string request_line =
      "{\"config\":{\"num_nodes\":20,\"duration_s\":120,"
      "\"overlay_sample_interval_s\":50},\"seeds\":[1,2,3,4]}";

  serve::Metrics metrics;
  serve::Scheduler scheduler(/*workers=*/1, /*max_queue=*/64, &metrics);
  std::uint64_t lines_out = 0;
  serve::Session session(&scheduler, &metrics, serve::SessionLimits{},
                         [&lines_out](std::string_view) {
                           ++lines_out;
                           return true;
                         });

  // Warm: the four seeds compute once and land in the cache; every timed
  // request below is pure serving.
  if (!session.handle_line(request_line)) return 1;

  double best = 0.0;
  for (int rep = 0; rep < opt.repeat; ++rep) {
    const auto start = bench::Clock::now();
    for (int i = 0; i < requests; ++i) {
      if (!session.handle_line(request_line)) return 1;
    }
    const double wall = bench::seconds_since(start);
    if (best == 0.0 || wall < best) best = wall;
  }

  bench::Record rec;
  rec.bench = "serve_warm_cache";
  rec.wall_s = best;
  rec.ops = static_cast<std::uint64_t>(requests);
  rec.ops_name = "requests";
  rec.extras.push_back(
      {"seed_lines", metrics.counter("seed_results").value(), false});
  rec.extras.push_back(
      {"cache_hits", metrics.counter("cache_hits").value(), false});
  bench::emit(rec, opt);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, /*allow_suite=*/false);
  return run(opt);
}
