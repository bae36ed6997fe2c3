// Mega-scale tier: does the full stack actually survive 10k-100k nodes?
//
// The other bench tiers measure throughput at scales where any asymptotic
// slip hides inside the constant factor. This tier exists to make the
// complexity story observable: at paper density (50 nodes per
// 100 m x 100 m, side scaling with sqrt(n)) every per-event cost must be
// O(degree) and every resident structure O(what the run touched) — a
// single O(n) scan per event or O(n) table per node turns 100k nodes into
// hours or tens of gigabytes, and this bench is where that shows up first.
//
// Workload shape: one complete scenario::SimulationRun per scale — Regular
// servents over AODV + controlled flood with the paper's Zipf query
// workload, random-waypoint mobility, fault-free. Simulated duration
// shrinks as n grows so the tier stays runnable; counters remain
// fixed-seed reproducible at every scale.
//
// Reported per record:
//   frames_per_sec   headline throughput (delivered link frames / wall s)
//   queries_per_sec  end-to-end overlay throughput rides along
//   peak_rss_mb      OS-reported process high-water mark — THE mega-scale
//                    acceptance number (sub-quadratic growth in n). Not a
//                    fixed-seed counter; bench_guard ignores it.
//   model_mem_mb     capacity-accounted model memory (net + routing +
//                    servent state, see RunResult) — deterministic, but
//                    machine-width dependent, so also not guarded.
//
// Usage: megascale [--label NAME] [--out FILE] [--smoke] [--repeat N]
// --smoke runs a single bounded 10k-node slice (the `mega` ctest + the
// bench_guard counter pin); full mode runs 10k/50k/100k.
#include <cmath>
#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "perf_record.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"
#include "util/mem.hpp"

namespace {

using namespace p2p;
using bench::Clock;
using bench::Options;
using bench::Record;

scenario::Parameters make_params(std::size_t nodes, double sim_seconds,
                                 const Options& opt) {
  const std::size_t sim_threads = opt.sim_threads;
  const std::size_t sim_shards = opt.sim_shards;
  scenario::Parameters p;
  p.algorithm = core::AlgorithmKind::kRegular;
  p.num_nodes = nodes;
  // Paper density: 50 nodes per 100 m x 100 m cell, side grows as sqrt(n)
  // so mean degree (and with it per-event cost) stays constant.
  const double side = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
  p.area_width = side;
  p.area_height = side;
  p.duration_s = sim_seconds;
  p.seed = 7;  // fixed seed: every counter below must be reproducible
  // On-demand routing only: a proactive protocol (DSDV) carries a row per
  // reachable destination by design — O(n) per node is the protocol, not
  // a bug, and it is exactly what this tier must not measure.
  p.routing_protocol = scenario::RoutingProtocol::kAodv;
  // Spread the join wave across the first tenth of the run instead of the
  // default 2 s: 75k simultaneous join floods is a thundering herd the
  // paper's scenarios never produce.
  p.join_stagger_s = sim_seconds / 10.0;
  // Measurement-only machinery off: each overlay sample runs a BFS from
  // every member over its own component, O(reached pairs + edges) per
  // sample — cheap on the fragmented overlay, but not what this tier
  // measures.
  p.overlay_sample_interval_s = 0.0;
  // Parallel execution. The shard count is pinned whenever any parallel
  // run is requested (never left to the 0-auto rule) so a --threads sweep
  // compares identical event histories: sim_threads only changes who
  // executes them (scenario::Parameters::effective_sim_shards).
  p.sim_threads = sim_threads;
  if (sim_shards > 0) {
    p.sim_shards = sim_shards;
  } else if (sim_threads > 1) {
    p.sim_shards = nodes >= 8192 ? 64 : 16;
  }
  return p;
}

Record bench_megascale(const std::string& bench_name, std::size_t nodes,
                       double sim_seconds, int repeat, const Options& opt) {
  Record rec;
  rec.bench = bench_name;
  rec.ops_name = "frames";
  rec.wall_s = 1e100;
  const scenario::Parameters params = make_params(nodes, sim_seconds, opt);
  rec.threads = opt.sim_threads;
  rec.sim_shards = params.effective_sim_shards() > 1
                       ? params.effective_sim_shards()
                       : 0;
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
    const std::size_t model_mem = result.net_memory_bytes +
                                  result.routing_memory_bytes +
                                  result.servent_memory_bytes;
    rec.ops = result.frames_delivered;
    rec.extras = {
        {"queries", queries, true},
        {"answers", answers, false},
        {"peak_rss_mb", util::peak_rss_bytes() >> 20, false},
        {"model_mem_mb", model_mem >> 20, false},
    };
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
  if (opt.smoke) {
    // Bounded 10k-node slice: the `mega` ctest tier and the bench_guard
    // counter pin (frames/queries/events — peak_rss_mb is machine state
    // and deliberately outside the guard's counter list). 75 simulated
    // seconds is the minimum for completed queries: the first query fires
    // up to query_gap_max (45 s) after join and finalizes only after the
    // 30 s response window.
    bench::emit(bench_megascale("megascale.smoke", 10000, 75.0, opt.repeat,
                                opt),
                opt);
    if (opt.sim_threads <= 1 && opt.sim_shards == 0) {
      // Sharded smoke (plain --smoke invocations only, so a --threads
      // sweep doesn't double-record): a 5k-node world executed through
      // the conservative parallel path (4 threads, 16-shard model
      // pinned). Its counters are fixed-seed reproducible like everything
      // else here, so bench_guard pins the sharded event history in
      // tier-1 too, at roughly half the cost of the sequential smoke.
      Options sharded = opt;
      sharded.sim_threads = 4;
      sharded.sim_shards = 16;
      bench::emit(bench_megascale("megascale.smoke_sharded", 5000, 75.0,
                                  opt.repeat, sharded),
                  opt);
    }
    return 0;
  }
  struct Scale {
    const char* name;
    std::size_t nodes;
    double sim_seconds;
  };
  // Same simulated duration at every scale so the records answer the
  // scaling question directly: event volume is O(n * sim_time) at constant
  // density, so wall_s and peak_rss_mb should both grow ~linearly in n —
  // anything super-linear is a reintroduced whole-population cost.
  const Scale scales[] = {
      {"megascale.10k", 10000, 90.0},
      {"megascale.50k", 50000, 90.0},
      {"megascale.100k", 100000, 90.0},
  };
  for (const Scale& s : scales) {
    // wall_s is best-of---repeat like every other tier; counters are
    // fixed-seed reproducible regardless. Use --repeat 1 when a quick
    // single pass is enough — a 100k-node world is ~a minute per rep.
    bench::emit(bench_megascale(s.name, s.nodes, s.sim_seconds, opt.repeat,
                                opt),
                opt);
  }
  return 0;
}
