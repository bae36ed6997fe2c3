// AODV: routing table semantics, on-demand discovery, multi-hop delivery,
// route reuse, link-break handling, and the cross-layer learn_route hint.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/model.hpp"
#include "mobility/trace.hpp"
#include "net/network.hpp"
#include "routing/aodv.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using net::NodeId;
using routing::AodvAgent;
using routing::AodvParams;
using routing::Route;
using routing::RoutingTable;

struct AppMsg final : net::AppPayload {
  int tag = 0;
  AppMsg() = default;
  explicit AppMsg(int t) : tag(t) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct Delivery {
  NodeId src;
  int tag;
  int hops;
};

// A line of nodes spaced 8 m apart (range 10 m): node i talks to i±1 only.
struct LineWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<AodvAgent>> agents;
  std::vector<std::vector<Delivery>> delivered;

  explicit LineWorld(std::size_t n, AodvParams params = {}) {
    net::NetworkParams net_params;
    net_params.region = {8.0 * static_cast<double>(n) + 10.0, 20.0};
    net_params.mac.jitter_max_s = 0.001;
    net = std::make_unique<net::Network>(sim, net_params, sim::RngStream(1));
    delivered.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
          geo::Vec2{8.0 * static_cast<double>(i) + 1.0, 10.0}));
      agents.push_back(std::make_unique<AodvAgent>(sim, *net, id, params));
      agents.back()->set_deliver_handler(
          [this, i](NodeId src, net::AppPayloadPtr app, int hops) {
            const auto* msg = dynamic_cast<const AppMsg*>(app.get());
            delivered[i].push_back({src, msg != nullptr ? msg->tag : -1, hops});
          });
    }
  }
};

TEST(RoutingTable, FindActiveRespectsValidityAndExpiry) {
  RoutingTable table;
  EXPECT_EQ(table.find_active(7, 0.0), nullptr);
  table.update(7, 3, 2, 10, true, 100.0);
  ASSERT_NE(table.find_active(7, 50.0), nullptr);
  EXPECT_EQ(table.find_active(7, 100.0), nullptr);  // expired
  // Expiry invalidates but keeps the entry (and its sequence number).
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(7)->dst_seq, 10U);
}

TEST(RoutingTable, IsBetterPrefersNewerSequence) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_TRUE(table.is_better(7, 11, true, 9, 0.0));    // newer seq
  EXPECT_FALSE(table.is_better(7, 9, true, 1, 0.0));    // older seq
  EXPECT_TRUE(table.is_better(7, 10, true, 1, 0.0));    // same seq, fewer hops
  EXPECT_FALSE(table.is_better(7, 10, true, 2, 0.0));   // same seq, same hops
  EXPECT_FALSE(table.is_better(7, 10, false, 1, 0.0));  // unknown seq loses
  EXPECT_TRUE(table.is_better(99, 0, false, 9, 0.0));   // no route yet
}

TEST(RoutingTable, InvalidateBumpsSequence) {
  RoutingTable table;
  table.update(7, 3, 2, 10, true, 100.0);
  EXPECT_TRUE(table.invalidate(7));
  EXPECT_EQ(table.find_active(7, 0.0), nullptr);
  EXPECT_EQ(table.find(7)->dst_seq, 11U);
  EXPECT_FALSE(table.invalidate(12345));  // unknown destination
}

TEST(RoutingTable, DestinationsViaFindsDependentRoutes) {
  RoutingTable table;
  table.update(7, 3, 2, 1, true, 100.0);
  table.update(8, 3, 3, 1, true, 100.0);
  table.update(9, 4, 1, 1, true, 100.0);
  std::vector<NodeId> via;
  table.destinations_via(3, 0.0, &via);
  EXPECT_EQ(via.size(), 2U);
  table.destinations_via(5, 0.0, &via);
  EXPECT_EQ(via.size(), 0U);
}

TEST(RoutingTable, RefreshExtendsLifetimeOnly) {
  RoutingTable table;
  table.update(7, 3, 2, 1, true, 100.0);
  table.refresh(7, 50.0);  // shorter: ignored
  EXPECT_NE(table.find_active(7, 99.0), nullptr);
  table.refresh(7, 200.0);
  EXPECT_NE(table.find_active(7, 150.0), nullptr);
  table.refresh(999, 100.0);  // unknown: no-op
}

TEST(Aodv, DeliversOverMultipleHops) {
  LineWorld world(5);
  world.agents[0]->send(4, world.net->pools().make_from(AppMsg(7)));
  world.sim.run_until(30.0);
  ASSERT_EQ(world.delivered[4].size(), 1U);
  EXPECT_EQ(world.delivered[4][0].src, 0U);
  EXPECT_EQ(world.delivered[4][0].tag, 7);
  EXPECT_EQ(world.delivered[4][0].hops, 4);
  EXPECT_GE(world.agents[0]->stats().rreq_originated, 1U);
}

TEST(Aodv, SecondSendReusesRoute) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  // Stay inside ACTIVE_ROUTE_TIMEOUT so the route is still fresh.
  world.sim.run_until(3.0);
  ASSERT_EQ(world.delivered[3].size(), 1U);
  const auto rreqs_after_first = world.agents[0]->stats().rreq_originated;
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(2)));
  world.sim.run_until(6.0);
  EXPECT_EQ(world.agents[0]->stats().rreq_originated, rreqs_after_first);
  ASSERT_EQ(world.delivered[3].size(), 2U);
}

TEST(Aodv, RouteExpiresAfterActiveRouteTimeout) {
  AodvParams params;
  params.active_route_timeout = 5.0;
  params.my_route_timeout = 5.0;  // RREP-granted lifetime
  LineWorld world(4, params);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(3.0);
  EXPECT_TRUE(world.agents[0]->has_route(3));
  world.sim.run_until(20.0);  // idle past the lifetime
  EXPECT_FALSE(world.agents[0]->has_route(3));
  // A later send transparently rediscovers.
  const auto rreqs = world.agents[0]->stats().rreq_originated;
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(2)));
  world.sim.run_until(25.0);
  EXPECT_GT(world.agents[0]->stats().rreq_originated, rreqs);
  EXPECT_EQ(world.delivered[3].size(), 2U);
}

TEST(Aodv, ReverseRouteInstalledAtDestination) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(3.0);
  // The RREQ flood gave node 3 a route back to node 0 (checked while the
  // reverse-route lifetime is still running).
  EXPECT_TRUE(world.agents[3]->has_route(0));
  EXPECT_EQ(world.agents[3]->route_hops(0), 3);
}

TEST(Aodv, ExpandingRingEventuallyReachesFarNodes) {
  AodvParams params;
  params.ttl_start = 1;
  params.ttl_increment = 2;
  params.ttl_threshold = 3;
  LineWorld world(8, params);  // 7 hops away: beyond the threshold rings
  world.agents[0]->send(7, world.net->pools().make_from(AppMsg(5)));
  world.sim.run_until(60.0);
  ASSERT_EQ(world.delivered[7].size(), 1U);
  // Needed several rings: more than one RREQ originated.
  EXPECT_GT(world.agents[0]->stats().rreq_originated, 1U);
}

TEST(Aodv, DiscoveryForUnreachableNodeFailsAndDropsPacket) {
  LineWorld world(3);
  // Add an isolated island node far away.
  const NodeId island = world.net->add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{5000.0, 10.0}));
  AodvParams params;
  AodvAgent island_agent(world.sim, *world.net, island, params);
  world.agents[0]->send(island, world.net->pools().make_from(AppMsg(9)));
  world.sim.run_until(120.0);
  EXPECT_GE(world.agents[0]->stats().discoveries_failed, 1U);
  EXPECT_GE(world.agents[0]->stats().data_dropped, 1U);
}

TEST(Aodv, LearnRouteEnablesSendWithoutDiscovery) {
  LineWorld world(3);
  // Teach every hop manually: 0 -> 1 -> 2.
  world.agents[0]->learn_route(2, 1, 2);
  world.agents[1]->learn_route(2, 2, 1);
  world.agents[0]->send(2, world.net->pools().make_from(AppMsg(3)));
  world.sim.run_until(5.0);
  ASSERT_EQ(world.delivered[2].size(), 1U);
  EXPECT_EQ(world.agents[0]->stats().rreq_originated, 0U);
}

TEST(Aodv, LinkBreakTriggersRediscoveryOnNextSend) {
  // 0-1-2 line where node 1 walks away after the route forms.
  sim::Simulator sim;
  net::NetworkParams net_params;
  net_params.region = {200.0, 40.0};
  net_params.mac.jitter_max_s = 0.001;
  net::Network network(sim, net_params, sim::RngStream(1));
  std::vector<std::unique_ptr<AodvAgent>> agents;
  std::vector<int> delivered_tags;

  const NodeId n0 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{1.0, 10.0}));
  const NodeId n1 = network.add_node(std::make_unique<mobility::TraceModel>(
      geo::Vec2{9.0, 10.0},
      std::vector<mobility::TraceStep>{{10.0, {9.0, 150.0}, 50.0}}));
  const NodeId n2 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{17.0, 10.0}));
  // A stationary alternative relay just off the line.
  const NodeId n3 = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{9.0, 16.0}));

  for (const NodeId id : {n0, n1, n2, n3}) {
    agents.push_back(std::make_unique<AodvAgent>(sim, network, id,
                                                 AodvParams{}));
  }
  agents[n2]->set_deliver_handler(
      [&](NodeId, net::AppPayloadPtr app, int) {
        delivered_tags.push_back(dynamic_cast<const AppMsg*>(app.get())->tag);
      });

  agents[n0]->send(n2, network.pools().make_from(AppMsg(1)));
  sim.run_until(5.0);
  ASSERT_EQ(delivered_tags.size(), 1U);

  // n1 teleports away at t=10; send again afterwards: AODV must detect the
  // broken next hop and rediscover via n3.
  sim.run_until(20.0);
  agents[n0]->send(n2, network.pools().make_from(AppMsg(2)));
  sim.run_until(60.0);
  ASSERT_EQ(delivered_tags.size(), 2U);
  EXPECT_EQ(delivered_tags[1], 2);
}

TEST(Aodv, QueueLimitDropsOldest) {
  AodvParams params;
  params.send_queue_limit = 2;
  LineWorld world(2, params);
  // Make the destination unreachable so packets stay queued.
  world.net->set_failed(1, true);
  for (int i = 0; i < 5; ++i) {
    world.agents[0]->send(1, world.net->pools().make_from(AppMsg(i)));
  }
  EXPECT_EQ(world.agents[0]->stats().data_dropped, 3U);
}

TEST(Aodv, StatsCountForwarding) {
  LineWorld world(4);
  world.agents[0]->send(3, world.net->pools().make_from(AppMsg(1)));
  world.sim.run_until(30.0);
  EXPECT_EQ(world.agents[1]->stats().data_forwarded +
                world.agents[2]->stats().data_forwarded,
            2U);
  EXPECT_EQ(world.agents[3]->stats().data_delivered, 1U);
}

}  // namespace
