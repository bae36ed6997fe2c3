// DSR: source-route discovery, cache reuse, link-break route errors, and
// the RoutingService contract.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/model.hpp"
#include "mobility/trace.hpp"
#include "net/network.hpp"
#include "routing/dsr.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using net::NodeId;
using routing::DsrAgent;
using routing::DsrParams;

struct AppMsg final : net::AppPayload {
  int tag = 0;
  AppMsg() = default;
  explicit AppMsg(int t) : tag(t) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct LineWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<DsrAgent>> agents;
  std::vector<std::vector<std::pair<NodeId, int>>> delivered;  // (src, hops)

  explicit LineWorld(std::size_t n, DsrParams params = {}) {
    net::NetworkParams net_params;
    net_params.region = {8.0 * static_cast<double>(n) + 10.0, 20.0};
    net_params.mac.jitter_max_s = 0.001;
    net = std::make_unique<net::Network>(sim, net_params, sim::RngStream(1));
    delivered.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
          geo::Vec2{8.0 * static_cast<double>(i) + 1.0, 10.0}));
      agents.push_back(std::make_unique<DsrAgent>(sim, *net, id, params));
      agents.back()->set_deliver_handler(
          [this, i](NodeId src, net::AppPayloadPtr, int hops) {
            delivered[i].emplace_back(src, hops);
          });
    }
  }
};

TEST(Dsr, DiscoversAndDeliversOverMultipleHops) {
  LineWorld world(5);
  world.agents[0]->send(4, world.net->pools().make_from(AppMsg(7)));
  world.sim.run_until(10.0);
  ASSERT_EQ(world.delivered[4].size(), 1U);
  EXPECT_EQ(world.delivered[4][0].first, 0U);
  EXPECT_EQ(world.delivered[4][0].second, 4);  // full source-route length
  EXPECT_GE(world.agents[0]->stats().rreq_originated, 1U);
  EXPECT_TRUE(world.agents[0]->has_route(4));
  EXPECT_EQ(world.agents[0]->route_hops(4), 4);
}

TEST(Dsr, TargetLearnsReversePath) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(10.0);
  // The target cached the reverse source route when replying.
  EXPECT_TRUE(world.agents[3]->has_route(0));
  EXPECT_EQ(world.agents[3]->route_hops(0), 3);
}

TEST(Dsr, CacheAvoidsSecondDiscovery) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(5.0);
  const auto rreqs = world.agents[0]->stats().rreq_originated;
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(2)));
  world.sim.run_until(8.0);
  EXPECT_EQ(world.agents[0]->stats().rreq_originated, rreqs);
  EXPECT_GE(world.agents[0]->stats().cache_hits, 1U);
  ASSERT_EQ(world.delivered[3].size(), 2U);
}

TEST(Dsr, CachedRouteExpires) {
  DsrParams params;
  params.route_lifetime = 5.0;
  LineWorld world(3, params);
  world.agents[0]->send(2, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(3.0);
  EXPECT_TRUE(world.agents[0]->has_route(2));
  world.sim.run_until(20.0);
  EXPECT_FALSE(world.agents[0]->has_route(2));
}

TEST(Dsr, LearnRouteCachesDirectNeighborsOnly) {
  LineWorld world(3);
  world.agents[0]->learn_route(1, 1, 1);  // 1-hop: cached
  EXPECT_TRUE(world.agents[0]->has_route(1));
  world.agents[0]->learn_route(2, 1, 2);  // multi-hop hint: ignored
  EXPECT_FALSE(world.agents[0]->has_route(2));
}

TEST(Dsr, ResetDropsTheRouteCache) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(5.0);
  ASSERT_TRUE(world.agents[0]->has_route(3));
  world.agents[0]->reset();
  EXPECT_FALSE(world.agents[0]->has_route(3));
  EXPECT_EQ(world.agents[0]->route_hops(3), -1);
}

TEST(Dsr, ResetCancelsPendingDiscoveries) {
  LineWorld world(3);
  world.net->set_failed(2, true);  // unreachable: the discovery stays pending
  world.agents[0]->send(2, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(1.0);
  const auto rreqs = world.agents[0]->stats().rreq_originated;
  ASSERT_EQ(rreqs, 1U);

  world.net->set_failed(0, true);  // crash: the queued packet dies with it
  world.agents[0]->reset();
  EXPECT_EQ(world.agents[0]->stats().data_dropped, 1U);
  world.sim.run_until(30.0);
  EXPECT_EQ(world.agents[0]->stats().rreq_originated, rreqs);
  EXPECT_EQ(world.agents[0]->stats().discoveries_failed, 0U);
  EXPECT_EQ(world.agents[0]->stats().data_dropped, 1U);
}

TEST(Dsr, LinkBreakSendsRerrAndPurgesCaches) {
  // 0-1-2 where node 1 walks away after the route forms; a relay 3 offers
  // an alternative path.
  sim::Simulator sim;
  net::NetworkParams net_params;
  net_params.region = {200.0, 40.0};
  net_params.mac.jitter_max_s = 0.001;
  net::Network network(sim, net_params, sim::RngStream(1));
  std::vector<std::unique_ptr<DsrAgent>> agents;
  std::vector<int> delivered;
  const NodeId n0 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{1.0, 10.0}));
  const NodeId n1 = network.add_node(std::make_unique<mobility::TraceModel>(
      geo::Vec2{9.0, 10.0},
      std::vector<mobility::TraceStep>{{10.0, {9.0, 180.0}, 60.0}}));
  const NodeId n2 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{17.0, 10.0}));
  const NodeId n3 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{9.0, 15.0}));
  for (const NodeId id : {n0, n1, n2, n3}) {
    agents.push_back(std::make_unique<DsrAgent>(sim, network, id, DsrParams{}));
  }
  agents[n2]->set_deliver_handler(
      [&](NodeId, net::AppPayloadPtr app, int) {
        delivered.push_back(dynamic_cast<const AppMsg*>(app.get())->tag);
      });
  agents[n0]->send(n2, network.pools().make_from(AppMsg(1)));
  sim.run_until(5.0);
  ASSERT_EQ(delivered.size(), 1U);
  // n1 leaves at t=10; the stale cached route breaks at its first hop or
  // mid-route; DSR purges and rediscovers via n3.
  sim.run_until(20.0);
  agents[n0]->send(n2, network.pools().make_from(AppMsg(2)));
  sim.run_until(40.0);
  agents[n0]->send(n2, network.pools().make_from(AppMsg(3)));
  sim.run_until(60.0);
  ASSERT_GE(delivered.size(), 2U);
  EXPECT_EQ(delivered.back(), 3);
}

TEST(Dsr, DiscoveryFailureDropsQueuedPackets) {
  LineWorld world(2);
  world.net->set_failed(1, true);
  world.agents[0]->send(1, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(30.0);
  EXPECT_GE(world.agents[0]->stats().discoveries_failed, 1U);
  EXPECT_GE(world.agents[0]->stats().data_dropped, 1U);
  EXPECT_TRUE(world.delivered[1].empty());
}

TEST(Dsr, MaxRouteLenBoundsDiscovery) {
  DsrParams params;
  params.max_route_len = 2;  // at most 2 intermediate hops accumulate
  LineWorld world(6, params);
  world.agents[0]->send(5, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(30.0);
  // 5 hops away needs 4 intermediates: unreachable under the bound.
  EXPECT_TRUE(world.delivered[5].empty());
  // 3 hops away (2 intermediates) still works.
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(2)));
  world.sim.run_until(60.0);
  EXPECT_EQ(world.delivered[3].size(), 1U);
}

TEST(Dsr, TelemetryContract) {
  LineWorld world(3);
  world.agents[0]->send(2, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(10.0);
  const auto telemetry = world.agents[0]->telemetry();
  EXPECT_GT(telemetry.control_messages_sent, 0U);
  EXPECT_EQ(world.agents[2]->telemetry().data_delivered, 1U);
}

}  // namespace
