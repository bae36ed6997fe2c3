// Lock-in tests for the cross-layer invariant checker (src/fault):
// deliberately corrupt state and assert every violation class is reported
// with node/time context; prove the checker is observational (zero
// violations and bit-identical traffic on the golden fig07 run); prove
// registered faults (crash + rebirth announced through the note hooks) and
// battery deaths do not count as violations.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "fault/invariants.hpp"
#include "net/dup_cache.hpp"
#include "p2p_test_world.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"

namespace {

using namespace p2p;
using fault::InvariantChecker;
using fault::InvariantKind;
using fault::Violation;

std::size_t count_kind(const InvariantChecker& checker, InvariantKind kind) {
  std::size_t n = 0;
  for (const Violation& v : checker.violations()) {
    if (v.kind == kind) ++n;
  }
  return n;
}

const Violation* first_of_kind(const InvariantChecker& checker,
                               InvariantKind kind) {
  for (const Violation& v : checker.violations()) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

// ------------------------------------------------ 1: overlay asymmetry

TEST(Invariants, ReportsAsymmetricOverlayEdge) {
  p2ptest::World world;
  world.add_node(10.0, 10.0);
  world.add_node(15.0, 10.0);
  world.add_servent(0, core::AlgorithmKind::kRegular);
  world.add_servent(1, core::AlgorithmKind::kRegular);
  world.start_all();
  world.sim().run_until(100.0);
  ASSERT_TRUE(world.symmetric(0, 1));

  InvariantChecker checker(world.network());
  checker.add_servent(&world.servent(0));
  checker.add_servent(&world.servent(1));

  // Unregistered silent state loss: node 1 forgets the connection but no
  // fault is announced to the checker — exactly the class of protocol bug
  // the asymmetry invariant exists to catch.
  world.servent(1).crash();
  const double t0 = world.sim().now();
  checker.sweep(t0);  // starts the one-sidedness clock (grace window)
  EXPECT_EQ(count_kind(checker, InvariantKind::kAsymmetricOverlayEdge), 0U);
  checker.sweep(t0 + 301.0);  // past the 300 s grace
  ASSERT_EQ(count_kind(checker, InvariantKind::kAsymmetricOverlayEdge), 1U);
  const Violation* v =
      first_of_kind(checker, InvariantKind::kAsymmetricOverlayEdge);
  EXPECT_EQ(v->node, 0U);  // the stale-edge holder
  EXPECT_EQ(v->time, t0 + 301.0);
  EXPECT_NE(v->detail.find("1"), std::string::npos);  // names the peer
}

TEST(Invariants, RegisteredRebirthExplainsOneSidedEdge) {
  p2ptest::World world;
  world.add_node(10.0, 10.0);
  world.add_node(15.0, 10.0);
  world.add_servent(0, core::AlgorithmKind::kRegular);
  world.add_servent(1, core::AlgorithmKind::kRegular);
  world.start_all();
  world.sim().run_until(100.0);
  ASSERT_TRUE(world.symmetric(0, 1));

  InvariantChecker checker(world.network());
  checker.add_servent(&world.servent(0));
  checker.add_servent(&world.servent(1));

  // Same one-sided edge, but the crash and rebirth went through the fault
  // hooks: node 0's edge predates node 1's last rebirth, so the reborn
  // peer legitimately forgot it (it still answers pings, so node 0 can
  // never notice). Not a violation.
  world.servent(1).crash();
  const double t0 = world.sim().now();
  checker.note_node_down(1, t0);
  checker.note_node_up(1, t0 + 40.0);
  checker.sweep(t0 + 50.0);
  checker.sweep(t0 + 400.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kAsymmetricOverlayEdge), 0U);
}

// The grace follows the holder's maintenance timers: max(silence_timeout,
// ping_interval + pong_timeout) + 120 s, 720 s with a 600 s silence timeout.
TEST(Invariants, AsymmetryGraceFollowsSilenceTimeout) {
  core::P2pParams p2p;
  p2p.silence_timeout = 600.0;
  p2ptest::World world(p2p);
  world.add_node(10.0, 10.0);
  world.add_node(15.0, 10.0);
  world.add_servent(0, core::AlgorithmKind::kRegular);
  world.add_servent(1, core::AlgorithmKind::kRegular);
  world.start_all();
  world.sim().run_until(100.0);
  ASSERT_TRUE(world.symmetric(0, 1));

  InvariantChecker checker(world.network());
  checker.add_servent(&world.servent(0));
  checker.add_servent(&world.servent(1));

  world.servent(1).crash();  // unregistered: node 0's edge goes one-sided
  const double t0 = world.sim().now();
  checker.sweep(t0);
  checker.sweep(t0 + 301.0);  // inside the 600 s silence timeout
  EXPECT_EQ(count_kind(checker, InvariantKind::kAsymmetricOverlayEdge), 0U);
  checker.sweep(t0 + 721.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kAsymmetricOverlayEdge), 1U);
}

// ------------------------------------------------ 2: stale route

TEST(Invariants, ReportsStaleRouteToDeadNeighbor) {
  p2ptest::World world;
  p2ptest::make_line(world, 3);
  InvariantChecker checker(world.network());
  checker.add_aodv(&world.aodv(0));
  checker.add_aodv(&world.aodv(1));
  checker.add_aodv(&world.aodv(2));

  const double t0 = 10.0;
  // Node 0 routes to 2 via neighbor 1; then node 1 dies.
  world.aodv(0).table().update(/*dst=*/2, /*next_hop=*/1, /*hops=*/2,
                               /*seq=*/1, /*seq_valid=*/true,
                               /*expires=*/t0 + 1000.0);
  world.network().set_failed(1, true);

  checker.sweep(t0);  // observes the death, starts its clock
  EXPECT_EQ(count_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor), 0U);
  checker.sweep(t0 + 26.0);  // past the 25 s grace: the route leaked
  ASSERT_EQ(count_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor), 1U);
  const Violation* v =
      first_of_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor);
  EXPECT_EQ(v->node, 0U);
  EXPECT_EQ(v->time, t0 + 26.0);
  EXPECT_NE(v->detail.find("via 1"), std::string::npos);

  // Recovery clears the clock: no further reports.
  world.network().set_failed(1, false);
  const std::uint64_t before = checker.violations_total();
  checker.sweep(t0 + 60.0);
  EXPECT_EQ(checker.violations_total(), before);
}

// The lifetime bound follows the table owner's timers: max(active_route_
// timeout, my_route_timeout) + 10 s, 70 s with a 60 s active route timeout.
TEST(Invariants, RouteLifetimeBoundFollowsActiveRouteTimeout) {
  routing::AodvParams aodv;
  aodv.active_route_timeout = 60.0;
  p2ptest::World world({}, 400.0, aodv);
  p2ptest::make_line(world, 3);
  InvariantChecker checker(world.network());
  checker.add_aodv(&world.aodv(0));

  const double t0 = 10.0;
  world.network().set_failed(1, true);
  checker.sweep(t0);  // observes the death, starts its clock

  // Next hop dead for 26 s; a 60 s refresh 5 s ago left 55 s: legitimate.
  world.aodv(0).table().update(/*dst=*/2, /*next_hop=*/1, /*hops=*/2,
                               /*seq=*/1, /*seq_valid=*/true,
                               /*expires=*/t0 + 26.0 + 55.0);
  checker.sweep(t0 + 26.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor), 0U);

  // No lifetime AODV grants reaches past 70 s.
  world.aodv(0).table().refresh(2, t0 + 27.0 + 70.5);
  checker.sweep(t0 + 27.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor), 1U);
}

// At the defaults a RREP grants my_route_timeout (20 s), longer than the
// 10 s active route timeout, so the bound is 30 s either way round.
TEST(Invariants, RouteLifetimeBoundCoversRrepLifetime) {
  p2ptest::World world;
  p2ptest::make_line(world, 3);
  InvariantChecker checker(world.network());
  checker.add_aodv(&world.aodv(0));

  const double t0 = 10.0;
  world.network().set_failed(1, true);
  checker.sweep(t0);
  world.aodv(0).table().update(2, 1, 2, 1, true, t0 + 26.0 + 25.0);
  checker.sweep(t0 + 26.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kStaleRouteToDeadNeighbor), 0U);
}

// ------------------------------------------------ 3: dup-cache corruption

TEST(Invariants, ReportsDupCacheCorruption) {
  p2ptest::World world;
  world.add_node(10.0, 10.0);
  InvariantChecker checker(world.network());

  net::DupCache cache;
  cache.insert(0, 1, 100.0);  // insertion recorded "in the future"
  checker.check_dup_cache(/*node=*/3, cache, /*now=*/50.0);

  ASSERT_EQ(count_kind(checker, InvariantKind::kDupCacheCorrupt), 1U);
  const Violation* v = first_of_kind(checker, InvariantKind::kDupCacheCorrupt);
  EXPECT_EQ(v->node, 3U);
  EXPECT_EQ(v->time, 50.0);
  EXPECT_FALSE(v->detail.empty());

  // The same cache checked at a sane time is consistent.
  checker.check_dup_cache(3, cache, 150.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kDupCacheCorrupt), 1U);
}

// ------------------------------------------------ 4: energy monotonicity

TEST(Invariants, ReportsEnergyDecrease) {
  p2ptest::World world;
  world.add_node(10.0, 10.0);
  InvariantChecker checker(world.network());

  checker.check_energy(/*node=*/2, 5.0, 10.0);
  EXPECT_EQ(checker.violations_total(), 0U);
  checker.check_energy(2, 4.0, 20.0);  // consumed energy fell
  ASSERT_EQ(count_kind(checker, InvariantKind::kEnergyDecreased), 1U);
  const Violation* v = first_of_kind(checker, InvariantKind::kEnergyDecreased);
  EXPECT_EQ(v->node, 2U);
  EXPECT_EQ(v->time, 20.0);
  // The high-water mark survives the dip: one report, and a later climb
  // back above it is fine.
  checker.check_energy(2, 6.0, 30.0);
  EXPECT_EQ(count_kind(checker, InvariantKind::kEnergyDecreased), 1U);
}

// -------------------------------------------- clean on the golden fig07 run

// The checker is observational: running the golden fig07 workload with the
// sweep enabled reports zero violations AND reproduces the golden traffic
// and energy totals bit-for-bit (constants from test_golden_metrics.cpp —
// the sweep adds events but no frames, no RNG draws, no state changes).
TEST(Invariants, CleanAndObservationalOnGoldenFig07Run) {
  scenario::Parameters params;
  params.num_nodes = 50;
  params.duration_s = 600.0;
  params.seed = 1;
  params.algorithm = core::AlgorithmKind::kRegular;
  params.invariant_check_interval_s = 30.0;
  scenario::SimulationRun run(params);
  const scenario::RunResult r = run.run();

  EXPECT_EQ(r.invariant_violations, 0U);
  EXPECT_EQ(r.frames_transmitted, 38690U);
  EXPECT_EQ(r.frames_delivered, 62203U);
  EXPECT_EQ(r.frames_lost, 0U);
  EXPECT_EQ(r.data_delivered, 1119U);
  EXPECT_EQ(r.energy_consumed_j, 6.1527955000001038);
}

// Finite batteries: nodes die mid-run, some on the very receive that
// empties their battery (that frame is still delivered, see
// Network.FrameThatEmptiesBatteryIsTheLastDelivered). A battery death is
// no violation, and the sweeps pick the dead up for the stale-route clock.
TEST(Invariants, CleanOnFiniteBatteryRun) {
  scenario::Parameters params;
  params.num_nodes = 50;
  params.duration_s = 600.0;
  params.seed = 1;
  params.energy.battery_j = 0.1;
  params.invariant_check_interval_s = 30.0;
  scenario::SimulationRun run(params);
  const scenario::RunResult r = run.run();

  std::size_t dead = 0;
  for (net::NodeId id = 0; id < params.num_nodes; ++id) {
    if (!run.network().alive(id)) ++dead;
  }
  ASSERT_GT(dead, 0U);
  EXPECT_EQ(r.invariant_violations, 0U);
  EXPECT_EQ(run.invariant_checker()->sweeps_run(), 20U);
}

// Non-default maintenance and route timers under churn: the bounds follow
// the keys, so no legitimate timer reads as a violation.
TEST(Invariants, CleanUnderChurnWithLongTimers) {
  scenario::Parameters params;
  params.num_nodes = 50;
  params.duration_s = 1800.0;
  params.seed = 2;
  params.fault.churn_rate_per_hour = 6.0;
  params.fault.mean_downtime_s = 60.0;
  params.aodv.active_route_timeout = 60.0;
  params.p2p.silence_timeout = 600.0;
  params.invariant_check_interval_s = 10.0;
  scenario::SimulationRun run(params);
  const scenario::RunResult r = run.run();

  EXPECT_GT(r.churn_recoveries, 0U);
  EXPECT_EQ(r.invariant_violations, 0U);
}

}  // namespace
