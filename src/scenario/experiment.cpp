#include "scenario/experiment.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace p2p::scenario {

namespace {

/// Fold one run into the experiment aggregate. Called single-threaded,
/// in seed order — the floating-point accumulation order is therefore a
/// pure function of the parameters, never of thread scheduling.
void aggregate(ExperimentResult* result, const RunResult& run) {
  ++result->runs;
  result->connect_curve.add_run(run.connect_received_per_member());
  result->ping_curve.add_run(run.ping_received_per_member());
  result->query_curve.add_run(run.query_received_per_member());
  for (std::size_t k = 0;
       k < run.per_file.size() && k < result->ranks.size(); ++k) {
    const FileRankStats& f = run.per_file[k];
    RankAggregate& agg = result->ranks[k];
    if (f.requests > 0) {
      agg.answers_per_request.add(f.answers_per_request());
      agg.answered_fraction.add(f.answered_fraction());
    }
    if (f.physical_samples > 0) agg.min_distance.add(f.mean_min_physical());
    if (f.p2p_samples > 0) agg.min_p2p_hops.add(f.mean_min_p2p());
  }
  result->frames_transmitted.add(static_cast<double>(run.frames_transmitted));
  result->energy_consumed_j.add(run.energy_consumed_j);
  result->routing_control.add(static_cast<double>(run.routing_control_messages));
  result->overlay_clustering.add(run.overlay_final.clustering);
  result->overlay_path_length.add(run.overlay_final.path_length);
  result->overlay_components.add(static_cast<double>(run.overlay_final.components));
  result->masters.add(static_cast<double>(run.masters));
  result->slaves.add(static_cast<double>(run.slaves));
  result->events_processed.add(static_cast<double>(run.events_processed));
  result->connections_established.add(
      static_cast<double>(run.connections_established));
  result->connections_closed.add(static_cast<double>(run.connections_closed));
  result->churn_deaths.add(static_cast<double>(run.churn_deaths));
  result->query_success_rate.add(run.query_success_rate());
  result->overlay_disrupted_s.add(run.overlay_disrupted_s);
  if (run.overlay_repairs > 0) {
    result->mean_repair_time_s.add(run.mean_repair_time_s);
  }
  result->orphaned_servents.add(static_cast<double>(run.orphaned_servents));
  result->invariant_violations.add(
      static_cast<double>(run.invariant_violations));
}

/// The per-seed telemetry record for one finished run (shared by the
/// batch worker and run_single_seed so the two paths can never drift).
SeedTelemetry make_seed_telemetry(std::size_t seed_index, std::uint64_t seed,
                                  double wall, const RunResult& run) {
  const double events_per_sec =
      wall > 0.0 ? static_cast<double>(run.events_processed) / wall : 0.0;
  // The RunCounters base is copied out of `run`.
  return {run, seed_index, seed, wall, events_per_sec};
}

}  // namespace

ExperimentResult run_experiment_with(
    const Parameters& base, std::size_t num_seeds, std::size_t threads,
    const std::function<RunResult(const Parameters&)>& run_fn,
    const SeedDoneFn& on_run_done, RunTelemetry* telemetry) {
  P2P_ASSERT(num_seeds >= 1);
  P2P_ASSERT(run_fn != nullptr);
  using Clock = std::chrono::steady_clock;
  const auto experiment_start = Clock::now();

  if (telemetry != nullptr) telemetry->reset(num_seeds);

  // One slot per seed; workers write disjoint slots, so the only shared
  // mutable state is the work counter and the failure latch.
  std::vector<RunResult> slots(num_seeds);
  std::atomic<std::size_t> next_seed_index{0};
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::exception_ptr first_failure;
  std::size_t failed_seed_index = 0;

  const auto worker = [&] {
    for (;;) {
      const std::size_t idx = next_seed_index.fetch_add(1);
      if (idx >= num_seeds || failed.load(std::memory_order_relaxed)) return;
      Parameters params = base;
      params.seed = base.seed + idx;
      const auto start = Clock::now();
      try {
        slots[idx] = run_fn(params);
      } catch (...) {
        std::scoped_lock lock(failure_mutex);
        if (!first_failure) {
          first_failure = std::current_exception();
          failed_seed_index = idx;
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (telemetry != nullptr) {
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count();
        telemetry->set(
            idx, make_seed_telemetry(idx, params.seed, wall, slots[idx]));
      }
      if (on_run_done) on_run_done(idx, num_seeds);  // no lock held
    }
  };

  std::size_t pool = threads;
  if (pool == 0) {
    pool = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pool = std::min(pool, num_seeds);

  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) workers.emplace_back(worker);
    for (auto& t : workers) t.join();
  }

  if (first_failure) {
    try {
      std::rethrow_exception(first_failure);
    } catch (const std::exception& e) {
      throw ExperimentError(failed_seed_index, base.seed + failed_seed_index,
                            e.what());
    } catch (...) {
      throw ExperimentError(failed_seed_index, base.seed + failed_seed_index,
                            "unknown exception");
    }
  }

  // Seed-order aggregation: identical accumulation order for any pool size.
  ExperimentResult result;
  result.ranks.resize(base.num_files);
  for (std::size_t idx = 0; idx < num_seeds; ++idx) {
    aggregate(&result, slots[idx]);
  }

  if (telemetry != nullptr) {
    telemetry->set_threads_used(pool);
    telemetry->set_total_wall_seconds(
        std::chrono::duration<double>(Clock::now() - experiment_start).count());
  }
  return result;
}

ExperimentResult run_experiment(const Parameters& base, std::size_t num_seeds,
                                std::size_t threads,
                                const SeedDoneFn& on_run_done,
                                RunTelemetry* telemetry) {
  return run_experiment_with(
      base, num_seeds, threads,
      [](const Parameters& params) { return SimulationRun(params).run(); },
      on_run_done, telemetry);
}

RunResult run_single_seed(const Parameters& params, SeedTelemetry* telemetry) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  RunResult result;
  try {
    result = SimulationRun(params).run();
  } catch (const std::exception& e) {
    throw ExperimentError(0, params.seed, e.what());
  } catch (...) {
    throw ExperimentError(0, params.seed, "unknown exception");
  }
  if (telemetry != nullptr) {
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    *telemetry = make_seed_telemetry(0, params.seed, wall, result);
  }
  return result;
}

std::size_t bench_seed_count() {
  if (const char* env = std::getenv("P2P_BENCH_SEEDS")) {
    if (const auto v = util::parse_int(env); v && *v >= 1) {
      return static_cast<std::size_t>(*v);
    }
  }
  return kPaperSeeds;
}

}  // namespace p2p::scenario
