// FloodService: hop-limited reach, duplicate suppression, hop accounting,
// and the cross-layer route hint.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/model.hpp"
#include "net/network.hpp"
#include "routing/aodv.hpp"
#include "routing/flood.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using net::NodeId;
using routing::FloodService;

struct AppMsg final : net::AppPayload {
  int tag = 0;
  AppMsg() = default;
  explicit AppMsg(int t) : tag(t) {}
  std::size_t size_bytes() const noexcept override { return 23; }
};

struct Received {
  NodeId origin;
  int tag;
  int hops;
};

// Line of nodes 8 m apart (range 10): hop distance == index distance.
struct FloodWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<routing::AodvAgent>> aodv;
  std::vector<std::unique_ptr<FloodService>> floods;
  std::vector<std::vector<Received>> received;

  explicit FloodWorld(std::size_t n, bool with_aodv = true) {
    net::NetworkParams params;
    params.region = {8.0 * static_cast<double>(n) + 10.0, 20.0};
    params.mac.jitter_max_s = 0.001;
    net = std::make_unique<net::Network>(sim, params, sim::RngStream(1));
    received.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
          geo::Vec2{8.0 * static_cast<double>(i) + 1.0, 10.0}));
      if (with_aodv) {
        aodv.push_back(std::make_unique<routing::AodvAgent>(
            sim, *net, id, routing::AodvParams{}));
      }
      floods.push_back(std::make_unique<FloodService>(
          sim, *net, id, with_aodv ? aodv.back().get() : nullptr));
      floods.back()->set_receive_handler(
          [this, i](NodeId origin, net::AppPayloadPtr app, int hops) {
            const auto* msg = dynamic_cast<const AppMsg*>(app.get());
            received[i].push_back({origin, msg ? msg->tag : -1, hops});
          });
    }
  }
};

TEST(Flood, MaxHopsOneReachesDirectNeighborsOnly) {
  FloodWorld world(5);
  world.floods[1]->flood(world.net->pools().make_from(AppMsg(1)), 1);
  world.sim.run();
  EXPECT_EQ(world.received[0].size(), 1U);
  EXPECT_EQ(world.received[2].size(), 1U);
  EXPECT_TRUE(world.received[3].empty());
  EXPECT_TRUE(world.received[4].empty());
  EXPECT_TRUE(world.received[1].empty());  // no self-delivery
}

TEST(Flood, HopLimitBoundsReach) {
  FloodWorld world(6);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(1)), 3);
  world.sim.run();
  EXPECT_EQ(world.received[1].size(), 1U);
  EXPECT_EQ(world.received[2].size(), 1U);
  EXPECT_EQ(world.received[3].size(), 1U);
  EXPECT_TRUE(world.received[4].empty());
  EXPECT_TRUE(world.received[5].empty());
}

TEST(Flood, HopsTraveledMatchesLineDistance) {
  FloodWorld world(5);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(9)), 4);
  world.sim.run();
  for (std::size_t i = 1; i < 5; ++i) {
    ASSERT_EQ(world.received[i].size(), 1U) << "node " << i;
    EXPECT_EQ(world.received[i][0].hops, static_cast<int>(i));
    EXPECT_EQ(world.received[i][0].origin, 0U);
    EXPECT_EQ(world.received[i][0].tag, 9);
  }
}

TEST(Flood, EachNodeDeliversEachFloodOnce) {
  // Dense cluster: everyone hears everyone; dedup must keep deliveries at 1.
  sim::Simulator sim;
  net::NetworkParams params;
  params.region = {20.0, 20.0};
  net::Network network(sim, params, sim::RngStream(1));
  std::vector<std::unique_ptr<FloodService>> floods;
  std::vector<int> count(6, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    const NodeId id = network.add_node(std::make_unique<mobility::StaticModel>(
        geo::Vec2{5.0 + static_cast<double>(i), 10.0}));
    floods.push_back(
        std::make_unique<FloodService>(sim, network, id, nullptr));
    floods.back()->set_receive_handler(
        [&count, i](NodeId, net::AppPayloadPtr, int) { ++count[i]; });
  }
  floods[0]->flood(network.pools().make_from(AppMsg(1)), 6);
  sim.run();
  for (std::size_t i = 1; i < 6; ++i) EXPECT_EQ(count[i], 1) << "node " << i;
  EXPECT_EQ(count[0], 0);
  EXPECT_GT(floods[2]->stats().duplicates, 0U);
}

TEST(Flood, SeparateFloodsDeliverSeparately) {
  FloodWorld world(3);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(1)), 2);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(2)), 2);
  world.sim.run();
  ASSERT_EQ(world.received[1].size(), 2U);
  EXPECT_NE(world.received[1][0].tag, world.received[1][1].tag);
}

TEST(Flood, InstallsReverseRouteViaAodvHint) {
  FloodWorld world(5);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(1)), 4);
  world.sim.run();
  // Node 4 can now answer node 0 without any route discovery.
  EXPECT_TRUE(world.aodv[4]->has_route(0));
  EXPECT_EQ(world.aodv[4]->route_hops(0), 4);
  world.aodv[4]->send(0, world.net->pools().make_from(AppMsg(2)));
  world.sim.run_until(world.sim.now() + 10.0);
  EXPECT_EQ(world.aodv[4]->stats().rreq_originated, 0U);
}

TEST(Flood, WorksWithoutAodv) {
  FloodWorld world(3, /*with_aodv=*/false);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(1)), 2);
  world.sim.run();
  EXPECT_EQ(world.received[1].size(), 1U);
  EXPECT_EQ(world.received[2].size(), 1U);
}

TEST(Flood, StatsAccounting) {
  FloodWorld world(4);
  world.floods[0]->flood(world.net->pools().make_from(AppMsg(1)), 3);
  world.sim.run();
  EXPECT_EQ(world.floods[0]->stats().originated, 1U);
  EXPECT_EQ(world.floods[1]->stats().delivered, 1U);
  EXPECT_EQ(world.floods[1]->stats().forwarded, 1U);
  // Last hop receiver does not forward (budget exhausted).
  EXPECT_EQ(world.floods[3]->stats().forwarded, 0U);
}

}  // namespace
