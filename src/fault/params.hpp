// Fault-model knobs (§8 "future work" experiments made concrete).
//
// Three independent fault processes, all driven by named RNG streams so a
// faulted run stays bit-reproducible across thread counts (see
// docs/determinism.md and docs/faults.md):
//   * node churn   — crash/recover cycles per node (exponential up/down);
//   * link blackouts — a random pair loses its link for a while (an
//     obstacle, interference, a directional fade);
//   * loss bursts  — Gilbert-Elliott channel: the whole channel drops into
//     a high-loss "bad" state with exponential sojourn times.
//
// This header is standalone (no simulator/network includes) so that
// scenario::Parameters can embed it without a dependency cycle.
#pragma once

namespace p2p::fault {

struct FaultParams {
  // ---- node churn ----
  // Expected crashes per node per hour; 0 disables churn.
  double churn_rate_per_hour = 0.0;
  // Mean up time in seconds; when > 0 it overrides churn_rate_per_hour
  // (mean_uptime_s == 3600 / rate).
  double mean_uptime_s = 0.0;
  // Mean down time (exponential) before the node is reborn.
  double mean_downtime_s = 120.0;

  // ---- per-link blackouts ----
  // Expected blackout events per hour network-wide; 0 disables.
  double blackout_rate_per_hour = 0.0;
  // Mean blackout duration in seconds (exponential).
  double blackout_duration_s = 30.0;

  // ---- Gilbert-Elliott loss bursts ----
  // Expected transitions into the bad state per hour; 0 disables.
  double burst_rate_per_hour = 0.0;
  // Mean bad-state sojourn in seconds (exponential).
  double burst_duration_s = 10.0;
  // Extra loss probability while the bad state is active. Composes with
  // the base MAC loss: p_eff = 1 - (1 - p_base) * (1 - p_burst).
  double burst_loss_probability = 0.8;

  // ---- injected worker crash (crash-isolation testing) ----
  // Throw out of the run itself at this simulated time; < 0 disables.
  // Unlike the processes above this is NOT a modeled network fault — it
  // aborts the repetition, exercising the crash-isolated worker paths
  // (ExperimentError in batch mode, a structured per-seed error from the
  // serving daemon). Sequential execution only (rejected when the
  // scenario shards; an exception may not cross shard worker threads).
  double crash_run_at_s = -1.0;

  bool crash_run_enabled() const noexcept { return crash_run_at_s >= 0.0; }

  bool churn_enabled() const noexcept {
    return churn_rate_per_hour > 0.0 || mean_uptime_s > 0.0;
  }
  bool blackouts_enabled() const noexcept {
    return blackout_rate_per_hour > 0.0 && blackout_duration_s > 0.0;
  }
  bool bursts_enabled() const noexcept {
    return burst_rate_per_hour > 0.0 && burst_duration_s > 0.0 &&
           burst_loss_probability > 0.0;
  }
  /// Any fault process active? When false the scenario builds no fault
  /// machinery at all (pay-for-what-you-use).
  bool enabled() const noexcept {
    return churn_enabled() || blackouts_enabled() || bursts_enabled();
  }

  /// Mean churn up and down times as FaultPlan::compile draws them.
  double churn_mean_up_s() const noexcept {
    return mean_uptime_s > 0.0 ? mean_uptime_s : 3600.0 / churn_rate_per_hour;
  }
  double churn_mean_down_s() const noexcept {
    return mean_downtime_s > 0.0 ? mean_downtime_s : 1.0;
  }

  /// Expected number of events FaultPlan::compile plans for `num_nodes`
  /// nodes over `horizon_s`, per process: a churn cycle (crash + recover)
  /// per mean up + down time per node, a blackout per mean gap, and a
  /// burst cycle (start + end) per mean good + bad sojourn. Lets a config
  /// be refused before compile materializes an unbounded plan.
  struct EventCounts {
    double churn = 0.0;
    double blackouts = 0.0;
    double bursts = 0.0;
    double total() const noexcept { return churn + blackouts + bursts; }
  };
  EventCounts expected_events(double num_nodes,
                              double horizon_s) const noexcept {
    EventCounts counts;
    if (churn_enabled()) {
      counts.churn = 2.0 * num_nodes * horizon_s /
                     (churn_mean_up_s() + churn_mean_down_s());
    }
    if (blackouts_enabled() && num_nodes >= 2.0) {
      counts.blackouts = blackout_rate_per_hour * horizon_s / 3600.0;
    }
    if (bursts_enabled()) {
      counts.bursts = 2.0 * horizon_s /
                      (3600.0 / burst_rate_per_hour + burst_duration_s);
    }
    return counts;
  }
};

}  // namespace p2p::fault
