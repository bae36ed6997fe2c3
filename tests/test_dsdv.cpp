// DSDV: proactive convergence, sequence-number semantics, link-break
// handling, and interchangeability with AODV behind RoutingService.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/model.hpp"
#include "mobility/trace.hpp"
#include "net/network.hpp"
#include "routing/dsdv.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using net::NodeId;
using routing::DsdvAgent;
using routing::DsdvParams;

struct AppMsg final : net::AppPayload {
  int tag = 0;
  AppMsg() = default;
  explicit AppMsg(int t) : tag(t) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct LineWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<DsdvAgent>> agents;
  std::vector<std::vector<std::pair<NodeId, int>>> delivered;  // (src, hops)

  explicit LineWorld(std::size_t n, DsdvParams params = {}) {
    net::NetworkParams net_params;
    net_params.region = {8.0 * static_cast<double>(n) + 10.0, 20.0};
    net_params.mac.jitter_max_s = 0.001;
    net = std::make_unique<net::Network>(sim, net_params, sim::RngStream(1));
    delivered.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
          geo::Vec2{8.0 * static_cast<double>(i) + 1.0, 10.0}));
      agents.push_back(std::make_unique<DsdvAgent>(sim, *net, id, params));
      agents.back()->set_deliver_handler(
          [this, i](NodeId src, net::AppPayloadPtr, int hops) {
            delivered[i].emplace_back(src, hops);
          });
    }
  }
};

TEST(Dsdv, TablesConvergeAfterAFewUpdateRounds) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  LineWorld world(5, params);
  // Routes propagate one hop per dump round: 4 rounds to cross the line.
  world.sim.run_until(40.0);
  EXPECT_TRUE(world.agents[0]->has_route(4));
  EXPECT_EQ(world.agents[0]->route_hops(4), 4);
  EXPECT_TRUE(world.agents[4]->has_route(0));
  EXPECT_EQ(world.agents[2]->route_hops(0), 2);
  EXPECT_EQ(world.agents[0]->table_size(), 4U);
}

TEST(Dsdv, DeliversMultiHopOnceConverged) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  LineWorld world(4, params);
  world.sim.run_until(30.0);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(7)));
  world.sim.run_until(35.0);
  ASSERT_EQ(world.delivered[3].size(), 1U);
  EXPECT_EQ(world.delivered[3][0].first, 0U);
  EXPECT_EQ(world.delivered[3][0].second, 3);
}

TEST(Dsdv, DropsWhenNotYetConverged) {
  DsdvParams params;
  params.periodic_update_interval = 50.0;  // no dump yet
  LineWorld world(4, params);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(5.0);
  EXPECT_TRUE(world.delivered[3].empty());
  EXPECT_EQ(world.agents[0]->stats().data_dropped, 1U);
}

TEST(Dsdv, SequenceNumbersPreferFresherInformation) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  LineWorld world(3, params);
  world.sim.run_until(30.0);
  // Node 1 sits between 0 and 2: its route to 2 is direct (metric 1),
  // never the stale 2-hop detour through 0.
  EXPECT_EQ(world.agents[1]->route_hops(2), 1);
  EXPECT_EQ(world.agents[1]->route_hops(0), 1);
}

TEST(Dsdv, LinkBreakMarksRoutesAndRecoves) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  params.route_stale_timeout = 20.0;
  // 0-1-2 line plus an alternative relay 3 near the middle.
  sim::Simulator sim;
  net::NetworkParams net_params;
  net_params.region = {200.0, 40.0};
  net_params.mac.jitter_max_s = 0.001;
  net::Network network(sim, net_params, sim::RngStream(1));
  std::vector<std::unique_ptr<DsdvAgent>> agents;
  std::vector<int> delivered;
  const NodeId n0 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{1.0, 10.0}));
  const NodeId n1 = network.add_node(std::make_unique<mobility::TraceModel>(
      geo::Vec2{9.0, 10.0},
      std::vector<mobility::TraceStep>{{30.0, {9.0, 180.0}, 60.0}}));
  const NodeId n2 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{17.0, 10.0}));
  const NodeId n3 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{9.0, 15.0}));
  for (const NodeId id : {n0, n1, n2, n3}) {
    agents.push_back(std::make_unique<DsdvAgent>(sim, network, id, params));
  }
  agents[n2]->set_deliver_handler(
      [&](NodeId, net::AppPayloadPtr app, int) {
        delivered.push_back(dynamic_cast<const AppMsg*>(app.get())->tag);
      });
  sim.run_until(25.0);
  agents[n0]->send(n2, network.pools().make_from(AppMsg(1)));
  sim.run_until(29.0);
  ASSERT_EQ(delivered.size(), 1U);
  // n1 leaves at t=30. After stale timeouts + new dumps, n0 must reach n2
  // through n3.
  sim.run_until(120.0);
  agents[n0]->send(n2, network.pools().make_from(AppMsg(2)));
  sim.run_until(130.0);
  ASSERT_EQ(delivered.size(), 2U);
  EXPECT_EQ(delivered[1], 2);
}

TEST(Dsdv, ResetDropsTheTableAndADeadNodeAdvertisesNothing) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  LineWorld world(3, params);
  world.sim.run_until(30.0);
  ASSERT_TRUE(world.agents[0]->has_route(2));

  world.net->set_failed(0, true);
  world.agents[0]->reset();
  EXPECT_FALSE(world.agents[0]->has_route(2));
  EXPECT_EQ(world.agents[0]->table_size(), 0U);
  const auto sent = world.agents[0]->stats().updates_sent;
  world.sim.run_until(60.0);  // several periodic ticks while down
  EXPECT_EQ(world.agents[0]->stats().updates_sent, sent);

  world.net->set_failed(0, false);  // reborn: the tick advertises again
  world.sim.run_until(100.0);
  EXPECT_GT(world.agents[0]->stats().updates_sent, sent);
  EXPECT_TRUE(world.agents[0]->has_route(2));
}

TEST(Dsdv, CountsControlTraffic) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  params.update_jitter = 0.5;
  LineWorld world(3, params);
  world.sim.run_until(51.0);
  // ~10 periodic dumps per node (plus a few triggered ones early on).
  const auto updates = world.agents[0]->stats().updates_sent;
  EXPECT_GE(updates, 8U);
  EXPECT_LE(updates, 20U);
  const auto telemetry = world.agents[0]->telemetry();
  EXPECT_EQ(telemetry.control_messages_sent, updates);
}

TEST(Dsdv, LearnRouteIsAnHonestNoop) {
  LineWorld world(3);
  world.agents[0]->learn_route(2, 1, 2);
  EXPECT_FALSE(world.agents[0]->has_route(2));  // tables stay pure
}

TEST(Dsdv, StaleRoutesExpire) {
  DsdvParams params;
  params.periodic_update_interval = 5.0;
  params.route_stale_timeout = 15.0;
  LineWorld world(2, params);
  world.sim.run_until(20.0);
  ASSERT_TRUE(world.agents[0]->has_route(1));
  // Kill node 1: no more dumps; after the stale timeout the route dies.
  world.net->set_failed(1, true);
  world.sim.run_until(60.0);
  EXPECT_FALSE(world.agents[0]->has_route(1));
}

}  // namespace
