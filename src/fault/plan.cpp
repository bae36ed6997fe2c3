#include "fault/plan.hpp"

#include <algorithm>
#include <tuple>

namespace p2p::fault {

FaultPlan FaultPlan::compile(const FaultParams& params, std::size_t num_nodes,
                             sim::SimTime horizon, sim::RngManager& rngs) {
  FaultPlan plan;
  if (!params.enabled() || num_nodes == 0 || horizon <= 0.0) return plan;

  // Node churn: each node alternates exponential up and down times, drawn
  // from its own stream so node counts and per-node rates are independent.
  if (params.churn_enabled()) {
    const double mean_up = params.churn_mean_up_s();
    const double mean_down = params.churn_mean_down_s();
    for (std::size_t i = 0; i < num_nodes; ++i) {
      auto rng = rngs.stream("fault-churn", i);
      const auto id = static_cast<net::NodeId>(i);
      sim::SimTime t = rng.exponential(mean_up);
      while (t < horizon) {
        plan.events_.push_back({t, FaultKind::kNodeCrash, id,
                                net::kInvalidNode, 0.0});
        const sim::SimTime down = rng.exponential(mean_down);
        if (t + down >= horizon) break;  // stays down past the end
        t += down;
        plan.events_.push_back({t, FaultKind::kNodeRecover, id,
                                net::kInvalidNode, 0.0});
        t += rng.exponential(mean_up);
      }
    }
  }

  // Link blackouts: Poisson arrivals over the whole network; each picks a
  // random (distinct) node pair and an exponential duration. The injector
  // handles the expiry itself (single event per blackout).
  if (params.blackouts_enabled() && num_nodes >= 2) {
    auto rng = rngs.stream("fault-blackout");
    const double mean_gap = 3600.0 / params.blackout_rate_per_hour;
    const auto n = static_cast<std::int64_t>(num_nodes);
    sim::SimTime t = rng.exponential(mean_gap);
    while (t < horizon) {
      const auto a = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
      auto b = static_cast<net::NodeId>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;  // distinct pair, uniform over all ordered pairs
      const double duration = rng.exponential(params.blackout_duration_s);
      plan.events_.push_back({t, FaultKind::kLinkBlackout, a, b, duration});
      t += rng.exponential(mean_gap);
    }
  }

  // Gilbert-Elliott bursts: the channel alternates a good state (base MAC
  // loss only) and a bad state (extra loss), both with exponential sojourn.
  if (params.bursts_enabled()) {
    auto rng = rngs.stream("fault-burst");
    const double mean_good = 3600.0 / params.burst_rate_per_hour;
    sim::SimTime t = rng.exponential(mean_good);
    while (t < horizon) {
      plan.events_.push_back({t, FaultKind::kLossBurstStart, net::kInvalidNode,
                              net::kInvalidNode,
                              params.burst_loss_probability});
      const sim::SimTime bad = rng.exponential(params.burst_duration_s);
      if (t + bad >= horizon) break;
      t += bad;
      plan.events_.push_back({t, FaultKind::kLossBurstEnd, net::kInvalidNode,
                              net::kInvalidNode, 0.0});
      t += rng.exponential(mean_good);
    }
  }

  // Total deterministic order: ties broken by (kind, a, b) so the merged
  // schedule never depends on the per-process emission order above.
  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.time, x.kind, x.a, x.b) <
                     std::tie(y.time, y.kind, y.a, y.b);
            });
  return plan;
}

}  // namespace p2p::fault
