// Network: unit-disk delivery, unicast/broadcast semantics, loss, energy
// charging, node failure, half-duplex serialization, and snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "mobility/model.hpp"
#include "mobility/trace.hpp"
#include "net/mac.hpp"
#include "net/neighbor_index.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using net::Frame;
using net::FramePayload;
using net::Network;
using net::NetworkParams;
using net::NodeId;

struct TestPayload final : FramePayload {
  int tag = 0;
  TestPayload() = default;
  explicit TestPayload(int t) : tag(t) {}
};

struct Recorder final : net::LinkListener {
  std::vector<Frame> frames;
  void on_frame(const Frame& frame) override { frames.push_back(frame); }
};

struct Fixture {
  sim::Simulator sim;
  NetworkParams params;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Recorder>> recorders;

  explicit Fixture(double range = 10.0) {
    params.range = range;
    params.mac.jitter_max_s = 0.0;  // deterministic timing for tests
    net = std::make_unique<Network>(sim, params, sim::RngStream(1));
  }

  NodeId add(double x, double y) {
    const NodeId id =
        net->add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{x, y}));
    recorders.push_back(std::make_unique<Recorder>());
    net->attach_listener(id, recorders.back().get());
    return id;
  }

  std::size_t received(NodeId id) const {
    return recorders[id]->frames.size();
  }
};

TEST(Network, InRangeIsSymmetricAndDistanceBased) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(9.9, 0);
  const NodeId c = f.add(19.0, 0);
  EXPECT_TRUE(f.net->in_range(a, b));
  EXPECT_TRUE(f.net->in_range(b, a));
  EXPECT_FALSE(f.net->in_range(a, c));   // 19 m apart
  EXPECT_TRUE(f.net->in_range(b, c));    // 9.1 m apart
  EXPECT_TRUE(f.net->in_range(a, a));
}

TEST(Network, BroadcastReachesOnlyInRangeNodes) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  const NodeId c = f.add(9, 0);
  const NodeId d = f.add(15, 0);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 64);
  f.sim.run();
  EXPECT_EQ(f.received(a), 0U);  // no self-delivery
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(f.received(c), 1U);
  EXPECT_EQ(f.received(d), 0U);
  EXPECT_EQ(f.net->frames_transmitted(), 1U);
  EXPECT_EQ(f.net->frames_delivered(), 2U);
}

TEST(Network, BroadcastFrameCarriesSenderAndPayload) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(42)), 64);
  f.sim.run();
  ASSERT_EQ(f.received(b), 1U);
  const Frame& frame = f.recorders[b]->frames[0];
  EXPECT_EQ(frame.sender, a);
  EXPECT_EQ(frame.link_dst, net::kBroadcast);
  EXPECT_EQ(frame.size_bytes, 64U);
  const auto* payload = dynamic_cast<const TestPayload*>(frame.payload.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->tag, 42);
}

TEST(Network, UnicastReachesOnlyTheAddressee) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  const NodeId c = f.add(5, 1);
  f.net->unicast(a, b, f.net->pools().make_from(TestPayload(1)), 32);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(f.received(c), 0U);
  EXPECT_EQ(f.recorders[b]->frames[0].link_dst, b);
}

TEST(Network, UnicastOutOfRangeIsSilentlyLost) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(50, 0);
  f.net->unicast(a, b, f.net->pools().make_from(TestPayload(1)), 32);
  f.sim.run();
  EXPECT_EQ(f.received(b), 0U);
  EXPECT_EQ(f.net->frames_lost(), 1U);
  // The sender still paid transmit energy (radios don't know).
  const net::EnergyParams energy;
  EXPECT_DOUBLE_EQ(f.net->energy(a).consumed_j(),
                   energy.tx_base_j + 32 * energy.tx_per_byte_j);
}

TEST(Network, DeliveryIsDelayedNotImmediate) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 64);
  EXPECT_EQ(f.received(b), 0U);  // nothing until events run
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_GT(f.sim.now(), 0.0);
}

TEST(Network, HalfDuplexSerializesTransmissions) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  f.add(5, 0);
  // Two back-to-back broadcasts: second arrival strictly after first.
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 1500);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(2)), 1500);
  std::vector<double> arrivals;
  // Run and capture arrival times via the simulator clock at delivery.
  f.sim.run();
  ASSERT_EQ(f.received(1), 2U);
  const double airtime = net::tx_duration(f.params.mac, 1500);
  // Second frame cannot start before the first finishes.
  EXPECT_GE(f.sim.now(), 2 * airtime);
}

TEST(Network, LossProbabilityOneDropsEverything) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.loss_probability = 1.0;
  Network network(sim, params, sim::RngStream(1));
  const NodeId a =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  const NodeId b =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{5, 0}));
  Recorder recorder;
  network.attach_listener(b, &recorder);
  network.broadcast(a, network.pools().make_from(TestPayload(1)), 64);
  network.unicast(a, b, network.pools().make_from(TestPayload(2)), 64);
  sim.run();
  EXPECT_TRUE(recorder.frames.empty());
  EXPECT_EQ(network.frames_lost(), 2U);
}

TEST(Network, FailedNodeNeitherSendsNorReceives) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->set_failed(b, true);
  EXPECT_FALSE(f.net->alive(b));
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 0U);

  f.net->broadcast(b, f.net->pools().make_from(TestPayload(2)), 64);
  f.sim.run();
  EXPECT_EQ(f.received(a), 0U);

  f.net->set_failed(b, false);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(3)), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
}

// Sequential liveness is tested before the receive is charged: the frame
// whose receive cost empties a battery still reaches the listeners, and
// the node is down for every later frame.
TEST(Network, FrameThatEmptiesBatteryIsTheLastDelivered) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  net::EnergyParams energy;
  const double rx_cost = energy.rx_base_j + 100 * energy.rx_per_byte_j;
  energy.battery_j = 1.5 * rx_cost;
  const NodeId b = f.net->add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{5, 0}), energy);
  f.recorders.push_back(std::make_unique<Recorder>());
  f.net->attach_listener(b, f.recorders.back().get());

  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 100);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_TRUE(f.net->alive(b));

  f.net->broadcast(a, f.net->pools().make_from(TestPayload(2)), 100);
  f.sim.run();
  EXPECT_EQ(f.received(b), 2U);  // this receive emptied the battery
  EXPECT_FALSE(f.net->alive(b));

  f.net->broadcast(a, f.net->pools().make_from(TestPayload(3)), 100);
  f.sim.run();
  EXPECT_EQ(f.received(b), 2U);
  EXPECT_DOUBLE_EQ(f.net->energy(b).consumed_j(), 2 * rx_cost);
  EXPECT_EQ(f.net->frames_delivered(), 2U);
}

TEST(Network, EnergyChargedForTxAndRx) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 100);
  f.sim.run();
  const net::EnergyParams energy;
  EXPECT_DOUBLE_EQ(f.net->energy(a).consumed_j(),
                   energy.tx_base_j + 100 * energy.tx_per_byte_j);
  EXPECT_DOUBLE_EQ(f.net->energy(b).consumed_j(),
                   energy.rx_base_j + 100 * energy.rx_per_byte_j);
}

TEST(Network, NeighborsOfMatchesInRange) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  f.add(3, 0);
  f.add(0, 9);
  f.add(30, 30);
  std::vector<NodeId> neighbors;
  f.net->neighbors_of(a, &neighbors);
  EXPECT_EQ(neighbors.size(), 2U);
}

TEST(Network, AdjacencySnapshotIsSymmetricUnitDisk) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(6, 0);
  const NodeId c = f.add(12, 0);
  const auto adj = f.net->adjacency_snapshot();
  ASSERT_EQ(adj.size(), 3U);
  EXPECT_EQ(adj[a], std::vector<NodeId>{b});
  EXPECT_EQ(adj[c], std::vector<NodeId>{b});
  EXPECT_EQ(adj[b].size(), 2U);
}

TEST(Network, AdjacencySnapshotExcludesDeadNodes) {
  Fixture f;
  f.add(0, 0);
  const NodeId b = f.add(6, 0);
  f.net->set_failed(b, true);
  const auto adj = f.net->adjacency_snapshot();
  EXPECT_TRUE(adj[0].empty());
  EXPECT_TRUE(adj[b].empty());
}

TEST(Network, MultipleListenersAllReceive) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  Recorder extra;
  f.net->attach_listener(b, &extra);
  f.net->broadcast(a, f.net->pools().make_from(TestPayload(1)), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(extra.frames.size(), 1U);
}

TEST(Network, GrayZoneProbabilityModel) {
  net::MacParams mac;
  mac.gray_zone_fraction = 0.3;  // soft edge from 7 m to 10 m
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 3.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 7.0, 10.0), 1.0);
  EXPECT_NEAR(net::gray_zone_delivery_probability(mac, 8.5, 10.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 10.0, 10.0), 0.0);
  mac.gray_zone_fraction = 0.0;  // hard disk
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 9.99, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 10.01, 10.0), 0.0);
}

TEST(Network, GrayZoneDropsSomeEdgeFramesButNotInnerOnes) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  params.mac.gray_zone_fraction = 0.4;  // soft edge from 6 m outward
  Network network(sim, params, sim::RngStream(3));
  const NodeId a = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  const NodeId inner = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{4, 0}));
  const NodeId edge = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{9, 0}));
  Recorder inner_rec, edge_rec;
  network.attach_listener(inner, &inner_rec);
  network.attach_listener(edge, &edge_rec);
  const int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    network.broadcast(a, network.pools().make_from(TestPayload(i)), 32);
  }
  sim.run();
  // Inside the solid zone: everything arrives. On the edge (p = 0.25):
  // a clear minority arrives.
  EXPECT_EQ(inner_rec.frames.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GT(edge_rec.frames.size(), 0U);
  EXPECT_LT(edge_rec.frames.size(), static_cast<std::size_t>(kFrames) / 2);
  EXPECT_GT(network.frames_lost(), 0U);
}

TEST(Network, MovingNodesChangeConnectivity) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  params.index_tolerance_s = 0.1;
  Network network(sim, params, sim::RngStream(1));
  // b walks away from a at 1 m/s starting in range.
  const NodeId a =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  auto trace = std::make_unique<mobility::TraceModel>(
      geo::Vec2{5.0, 0.0},
      std::vector<mobility::TraceStep>{{0.0, {100.0, 0.0}, 1.0}});
  const NodeId b = network.add_node(std::move(trace));
  EXPECT_TRUE(network.in_range(a, b));
  sim.run_until(20.0);  // b is now at x=25
  EXPECT_FALSE(network.in_range(a, b));
}

// Listener that appends (receiver, payload tag) to a shared log, so tests
// can observe the *global* delivery order across all nodes.
struct OrderRecorder final : net::LinkListener {
  NodeId self = net::kInvalidNode;
  std::vector<std::pair<int, NodeId>>* log = nullptr;
  void on_frame(const Frame& frame) override {
    const auto* payload = dynamic_cast<const TestPayload*>(frame.payload.get());
    log->emplace_back(payload != nullptr ? payload->tag : -1, self);
  }
};

// The batched arrival event must be observationally identical to the old
// per-receiver-event baseline: survivors are delivered in receiver order
// (the order neighbors_of() reports), one broadcast after another.
TEST(Network, BatchedBroadcastMatchesPerReceiverDeliveryOrder) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  std::vector<NodeId> listeners;
  listeners.push_back(f.add(5, 0));
  listeners.push_back(f.add(2, 2));
  listeners.push_back(f.add(9, -1));
  listeners.push_back(f.add(-4, 4));

  std::vector<NodeId> order;
  f.net->neighbors_of(a, &order);
  ASSERT_EQ(order.size(), listeners.size());

  std::vector<std::pair<int, NodeId>> log;
  std::vector<OrderRecorder> recs(listeners.size());
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    recs[i].self = listeners[i];
    recs[i].log = &log;
    f.net->attach_listener(listeners[i], &recs[i]);
  }

  const std::uint64_t before = f.sim.events_scheduled();
  const int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    f.net->broadcast(a, f.net->pools().make_from(TestPayload(i)), 64);
  }
  // One arrival event per transmission, regardless of receiver count.
  EXPECT_EQ(f.sim.events_scheduled() - before,
            static_cast<std::uint64_t>(kFrames));
  f.sim.run();

  std::vector<std::pair<int, NodeId>> expected;
  for (int i = 0; i < kFrames; ++i) {
    for (const NodeId r : order) expected.emplace_back(i, r);
  }
  EXPECT_EQ(log, expected);
}

// With loss and gray-zone fading enabled, the batched path must consume
// mac RNG draws in the exact order the per-receiver baseline did: one
// jitter draw per transmission, then a loss draw and a gray-zone draw per
// in-range receiver, in receiver order. A twin RngStream seeded alike
// replays that schedule and predicts every survivor.
TEST(Network, BatchedBroadcastMatchesPerReceiverChannelDraws) {
  sim::Simulator sim;
  NetworkParams params;
  params.range = 10.0;
  params.mac.loss_probability = 0.3;
  params.mac.gray_zone_fraction = 0.5;
  const std::uint64_t kSeed = 7;
  Network network(sim, params, sim::RngStream(kSeed));

  std::vector<geo::Vec2> pos = {
      {0, 0}, {2, 0}, {4, 1}, {8, 0}, {9.5, 0}, {6, -3}, {20, 20}};
  std::vector<NodeId> ids;
  for (const auto& p : pos) {
    ids.push_back(network.add_node(std::make_unique<mobility::StaticModel>(p)));
  }
  const NodeId sender = ids[0];

  std::vector<NodeId> order;
  network.neighbors_of(sender, &order);  // consumes no RNG
  ASSERT_EQ(order.size(), 5U);           // (20,20) is out of range

  std::vector<std::pair<int, NodeId>> log;
  std::vector<OrderRecorder> recs(ids.size());
  for (std::size_t i = 1; i < ids.size(); ++i) {
    recs[i].self = ids[i];
    recs[i].log = &log;
    network.attach_listener(ids[i], &recs[i]);
  }

  // Replay the baseline draw schedule on a twin stream.
  sim::RngStream twin(kSeed);
  std::vector<std::pair<int, NodeId>> expected;
  std::size_t expected_lost = 0;
  const int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    (void)twin.uniform(0.0, params.mac.jitter_max_s);  // schedule_tx jitter
    for (const NodeId r : order) {
      bool lost = twin.chance(params.mac.loss_probability);
      if (!lost) {
        const double dist = geo::distance(pos[sender], pos[r]);
        lost = !twin.chance(
            net::gray_zone_delivery_probability(params.mac, dist, params.range));
      }
      if (lost) {
        ++expected_lost;
      } else {
        expected.emplace_back(i, r);
      }
    }
  }

  for (int i = 0; i < kFrames; ++i) {
    network.broadcast(sender, network.pools().make_from(TestPayload(i)), 64);
  }
  sim.run();

  EXPECT_EQ(log, expected);
  EXPECT_EQ(network.frames_lost(), expected_lost);
  EXPECT_EQ(network.frames_delivered(), expected.size());
}

// physical_hop_distance runs a BFS over the spatial grid; the answer must
// equal a BFS over the full snapshot in every case (chain, unreachable
// island, dead endpoint, self).
TEST(Network, PhysicalHopDistanceGridPathMatchesSnapshotBfs) {
  Fixture f;
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(f.add(6.0 * i, 0.0));
  const NodeId island = f.add(100.0, 100.0);
  const NodeId dead = f.add(3.0, 5.0);
  f.net->set_failed(dead, true);

  const graph::Graph snapshot(f.net->adjacency_snapshot());
  for (NodeId src = 0; src < 7; ++src) {
    const std::vector<int> dist = snapshot.bfs_distances(src);
    for (NodeId dst = 0; dst < 7; ++dst) {
      EXPECT_EQ(f.net->physical_hop_distance(src, dst), dist[dst])
          << "src=" << src << " dst=" << dst;
    }
  }
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], chain[4]), 4);
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], island),
            graph::kUnreachable);
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], dead),
            graph::kUnreachable);
}

// Inside a shard window the link queries run on the shard's lane over the
// spatial index's cached positions and the blackout ledger. On a static
// world cached positions equal fresh ones, so every pair must get the
// sequential answer — including a blacked-out link and a dead node.
TEST(Network, WindowLinkQueriesMatchSequentialOnStaticWorld) {
  Fixture f;
  for (int i = 0; i < 5; ++i) f.add(6.0 * i, 0.0);
  f.add(100.0, 100.0);
  const NodeId dead = f.add(3.0, 5.0);
  f.net->set_failed(dead, true);
  f.net->set_link_blackout(1, 2, 50.0);
  const NodeId n = static_cast<NodeId>(f.net->size());

  struct Answer {
    int hops;
    bool in_range;
    bool usable;
    bool operator==(const Answer&) const = default;
  };
  auto answers = [&] {
    std::vector<Answer> out;
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        out.push_back({f.net->physical_hop_distance(a, b),
                       f.net->in_range(a, b), f.net->link_usable(a, b)});
      }
    }
    return out;
  };
  const std::vector<Answer> sequential = answers();
  EXPECT_FALSE(f.net->link_usable(1, 2));  // the blackout is in force
  EXPECT_TRUE(f.net->in_range(1, 2));

  sim::Simulator shard0;
  sim::Simulator shard1;
  std::vector<std::uint32_t> home(n);
  for (NodeId id = 0; id < n; ++id) home[id] = id % 2;
  std::vector<sim::RngStream> rngs;
  rngs.emplace_back(11);
  rngs.emplace_back(12);
  f.net->enable_sharding({&shard0, &shard1}, std::move(home), std::move(rngs));
  f.net->begin_window(0.0, 1.0);
  f.net->enter_shard(0);
  EXPECT_EQ(f.net->current_shard(), 0U);
  const std::vector<Answer> windowed = answers();
  f.net->exit_shard();
  f.net->end_window(1.0);
  EXPECT_EQ(f.net->current_shard(), Network::kNoShard);
  EXPECT_TRUE(windowed == sequential);
}

// A Gilbert-Elliott burst composes with the base loss as
// p_eff = 1 - (1 - p_base)(1 - p_burst), in one draw per receiver: twin A
// (base p, burst b) and twin B (base p_eff, no burst) on the same mac
// stream deliver the same frames to the same receivers. With the burst
// lifted, A must match a fault-free twin C (gray zone off, so every twin
// takes one loss draw per receiver and the streams stay in step).
TEST(Network, BurstLossComposesWithBaseLoss) {
  constexpr double kBase = 0.2;
  constexpr double kBurst = 0.5;
  constexpr double kEffective = 1.0 - (1.0 - kBase) * (1.0 - kBurst);
  struct Twin {
    sim::Simulator sim;
    std::unique_ptr<Network> net;
    std::vector<std::pair<int, NodeId>> log;
    std::vector<OrderRecorder> recs;
    explicit Twin(double loss) : recs(6) {
      NetworkParams params;
      params.mac.loss_probability = loss;
      net = std::make_unique<Network>(sim, params, sim::RngStream(9));
      for (NodeId i = 0; i < recs.size(); ++i) {
        const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
            geo::Vec2{1.5 * i, 0.5 * i}));
        recs[i].self = id;
        recs[i].log = &log;
        net->attach_listener(id, &recs[i]);
      }
    }
    void send(int tag) {
      net->broadcast(0, net->pools().make_from(TestPayload(tag)), 64);
      sim.run();
    }
  };
  Twin a(kBase);
  Twin b(kEffective);
  Twin c(kBase);
  a.net->set_burst_loss(kBurst);
  const int kFrames = 60;
  for (int i = 0; i < kFrames; ++i) {
    a.send(i);
    b.send(i);
    c.send(i);
    ASSERT_EQ(a.log, b.log) << "frame " << i;
    ASSERT_EQ(a.net->frames_lost(), b.net->frames_lost()) << "frame " << i;
  }
  EXPECT_GT(a.net->frames_lost(), c.net->frames_lost());  // the burst bit

  a.net->set_burst_loss(0.0);
  const auto a_mark = static_cast<std::ptrdiff_t>(a.log.size());
  const auto c_mark = static_cast<std::ptrdiff_t>(c.log.size());
  const std::uint64_t a_lost = a.net->frames_lost();
  const std::uint64_t c_lost = c.net->frames_lost();
  for (int i = kFrames; i < 2 * kFrames; ++i) {
    a.send(i);
    c.send(i);
    ASSERT_TRUE(std::equal(a.log.begin() + a_mark, a.log.end(),
                           c.log.begin() + c_mark, c.log.end()))
        << "frame " << i;
    ASSERT_EQ(a.net->frames_lost() - a_lost, c.net->frames_lost() - c_lost)
        << "frame " << i;
  }
}

// A blackout ends at its `until`: from then on the link is usable and a
// broadcast reaches the peer with the same frames and mac draws as a twin
// that was never blacked out, on the sequential path and inside a shard
// window. The expired entry stays in the ledger; only its end time counts.
TEST(Network, BlackoutEndsAtItsUntil) {
  struct Twin {
    sim::Simulator sim;
    sim::Simulator shard0;
    sim::Simulator shard1;
    std::unique_ptr<Network> net;
    std::vector<std::pair<int, NodeId>> log;
    std::vector<OrderRecorder> recs;
    Twin() : recs(4) {
      NetworkParams params;
      params.mac.loss_probability = 0.3;
      net = std::make_unique<Network>(sim, params, sim::RngStream(5));
      for (NodeId i = 0; i < recs.size(); ++i) {
        const NodeId id = net->add_node(std::make_unique<mobility::StaticModel>(
            geo::Vec2{1.5 * i, 0.0}));
        recs[i].self = id;
        recs[i].log = &log;
        net->attach_listener(id, &recs[i]);
      }
    }
    void send(int first, int count) {
      for (int tag = first; tag < first + count; ++tag) {
        net->broadcast(0, net->pools().make_from(TestPayload(tag)), 64);
      }
    }
    std::size_t reached(NodeId id) const {
      return static_cast<std::size_t>(std::count_if(
          log.begin(), log.end(), [id](const auto& e) { return e.second == id; }));
    }
  };
  constexpr int kFrames = 30;
  Twin a;
  Twin b;  // never blacked out
  a.net->set_link_blackout(0, 1, 5.0);
  EXPECT_FALSE(a.net->link_usable(0, 1));
  a.sim.run_until(5.0);
  b.sim.run_until(5.0);
  EXPECT_TRUE(a.net->link_usable(0, 1));
  a.send(0, kFrames);
  b.send(0, kFrames);
  a.sim.run();
  b.sim.run();
  EXPECT_GT(a.reached(1), 0U);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.net->frames_lost(), b.net->frames_lost());

  // Inside a window: the blackout holds in the window before its end and is
  // gone in the window that starts at it. Sharding precedes any traffic,
  // so the windowed twins are fresh. Every node lives on shard 0.
  Twin c;
  Twin d;  // never blacked out
  for (Twin* t : {&c, &d}) {
    std::vector<sim::RngStream> rngs;
    rngs.emplace_back(11);
    rngs.emplace_back(12);
    t->net->enable_sharding({&t->shard0, &t->shard1},
                            std::vector<std::uint32_t>(t->recs.size(), 0),
                            std::move(rngs));
  }
  c.net->set_link_blackout(0, 1, 5.0);
  for (Twin* t : {&c, &d}) {
    t->net->begin_window(0.0, 5.0);
    t->net->enter_shard(0);
    EXPECT_EQ(t->net->link_usable(0, 1), t == &d);
    t->net->exit_shard();
    t->net->end_window(5.0);

    t->shard0.run_until(5.0);
    t->net->begin_window(5.0, 10.0);
    t->net->enter_shard(0);
    EXPECT_TRUE(t->net->link_usable(0, 1));
    t->send(0, kFrames);
    t->shard0.run_window(10.0);
    t->net->exit_shard();
    t->net->end_window(10.0);
  }
  EXPECT_GT(c.reached(1), 0U);
  EXPECT_EQ(c.log, d.log);
  EXPECT_EQ(c.net->frames_lost(), d.net->frames_lost());
}

// Inside shard windows a receiver's liveness is read at delivery. A node
// failed at the barrier after a frame was sent, before the window that
// delivers it, receives nothing: neither on the sender's lane nor through
// the outbox from another shard. Live receivers on both lanes are the
// control.
TEST(Network, WindowedDeliverySkipsNodesFailedBeforeTheWindow) {
  Fixture f;
  const NodeId sender = f.add(0, 0);
  const NodeId same_dead = f.add(2, 0);
  const NodeId same_live = f.add(4, 0);
  const NodeId cross_dead = f.add(0, 2);
  const NodeId cross_live = f.add(0, 4);
  sim::Simulator shard0;
  sim::Simulator shard1;
  std::vector<sim::RngStream> rngs;
  rngs.emplace_back(11);
  rngs.emplace_back(12);
  f.net->enable_sharding({&shard0, &shard1}, {0, 0, 0, 1, 1}, std::move(rngs));

  // Window 1: the sender transmits while every receiver is alive.
  const double lookahead = net::min_frame_latency(f.params.mac);
  f.net->begin_window(0.0, lookahead);
  f.net->enter_shard(0);
  f.net->broadcast(sender, f.net->pools().make_from(TestPayload(1)), 64);
  f.net->unicast(sender, same_dead, f.net->pools().make_from(TestPayload(2)),
                 64);
  f.net->unicast(sender, cross_dead, f.net->pools().make_from(TestPayload(3)),
                 64);
  f.net->exit_shard();
  f.net->end_window(lookahead);

  // Barrier: two receivers fail, as a global fault event would fail them.
  f.net->set_failed(same_dead, true);
  f.net->set_failed(cross_dead, true);

  // Window 2 delivers everything window 1 sent.
  f.net->begin_window(lookahead, 1.0);
  for (sim::Simulator* shard : {&shard0, &shard1}) {
    f.net->enter_shard(shard == &shard0 ? 0 : 1);
    shard->run_window(1.0);
    f.net->exit_shard();
  }
  f.net->end_window(1.0);

  EXPECT_EQ(f.received(same_dead), 0U);
  EXPECT_EQ(f.received(cross_dead), 0U);
  EXPECT_EQ(f.received(same_live), 1U);
  EXPECT_EQ(f.received(cross_live), 1U);
  EXPECT_EQ(f.net->frames_delivered(), 2U);
  EXPECT_DOUBLE_EQ(f.net->energy(same_dead).consumed_j(), 0.0);
  EXPECT_DOUBLE_EQ(f.net->energy(cross_dead).consumed_j(), 0.0);
}

// Inside a shard window liveness is the window-start snapshot: a battery
// emptied by a charge stays "alive" until the barrier applies the flip.
// So the receive that empties a battery is delivered (as sequentially), a
// later frame in the same window is delivered too (sequentially it would
// not be), and alive() turns false only after end_window. The same holds
// for a transmit that empties the sender's battery. Both nodes live on
// shard 0.
TEST(Network, WindowedBatteryDeathFlipsAtTheBarrier) {
  const net::EnergyParams defaults;
  const double rx_cost = defaults.rx_base_j + 100 * defaults.rx_per_byte_j;
  const double tx_cost = defaults.tx_base_j + 100 * defaults.tx_per_byte_j;
  struct Case {
    bool sender_dies;
    double battery_j;
  };
  for (const Case c : {Case{false, 1.5 * rx_cost}, Case{true, 1.5 * tx_cost}}) {
    SCOPED_TRACE(c.sender_dies ? "transmit empties the sender"
                               : "receive empties the receiver");
    Fixture f;
    net::EnergyParams finite;
    finite.battery_j = c.battery_j;
    const NodeId a = f.net->add_node(
        std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}),
        c.sender_dies ? finite : net::EnergyParams{});
    const NodeId b = f.net->add_node(
        std::make_unique<mobility::StaticModel>(geo::Vec2{5, 0}),
        c.sender_dies ? net::EnergyParams{} : finite);
    for (const NodeId id : {a, b}) {
      f.recorders.push_back(std::make_unique<Recorder>());
      f.net->attach_listener(id, f.recorders.back().get());
    }
    const NodeId dying = c.sender_dies ? a : b;

    sim::Simulator shard0;
    sim::Simulator shard1;
    std::vector<sim::RngStream> rngs;
    rngs.emplace_back(11);
    rngs.emplace_back(12);
    f.net->enable_sharding({&shard0, &shard1}, {0, 0}, std::move(rngs));

    // Window 1: three frames; the second empties the battery.
    f.net->begin_window(0.0, 1.0);
    f.net->enter_shard(0);
    for (int tag = 1; tag <= 3; ++tag) {
      f.net->broadcast(a, f.net->pools().make_from(TestPayload(tag)), 100);
    }
    shard0.run_window(1.0);
    EXPECT_FALSE(f.net->energy(dying).alive());
    EXPECT_TRUE(f.net->alive(dying));  // frozen until the barrier
    f.net->exit_shard();
    EXPECT_TRUE(f.net->alive(dying));
    f.net->end_window(1.0);
    EXPECT_FALSE(f.net->alive(dying));
    EXPECT_EQ(f.received(b), 3U);
    EXPECT_EQ(f.net->frames_transmitted(), 3U);
    EXPECT_EQ(f.net->frames_delivered(), 3U);

    // Window 2: the node is down now, so nothing more gets through.
    f.net->begin_window(1.0, 2.0);
    f.net->enter_shard(0);
    f.net->broadcast(a, f.net->pools().make_from(TestPayload(4)), 100);
    shard0.run_window(2.0);
    f.net->exit_shard();
    f.net->end_window(2.0);
    EXPECT_EQ(f.received(b), 3U);
    EXPECT_EQ(f.net->frames_transmitted(), c.sender_dies ? 3U : 4U);
    EXPECT_EQ(f.net->frames_delivered(), 3U);
    EXPECT_DOUBLE_EQ(f.net->energy(b).consumed_j(), 3 * rx_cost);
  }
}

// ---- NeighborIndex steady-state allocation lock-in ------------------------

// Deterministic, exactly-periodic motion field: node positions repeat every
// kStepsPerCycle refresh steps (the angle is computed from the step index,
// not accumulated time, so cycle N reproduces cycle 1 bit-for-bit). One
// full cycle therefore drives every bucket to its maximum occupancy — after
// a warm-up cycle no refresh may allocate again.
struct OscillatingField {
  static constexpr int kStepsPerCycle = 50;
  std::vector<geo::Vec2> centers;
  int step = 0;
  geo::Vec2 at(NodeId id) const {
    const double phase = 0.7 * static_cast<double>(id);
    const double angle = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(step % kStepsPerCycle) /
                         static_cast<double>(kStepsPerCycle);
    // Amplitude * angular step per refresh stays under the declared
    // max_speed of 1 m/s.
    return {centers[id].x + 3.0 * std::sin(angle + phase),
            centers[id].y + 3.0 * std::cos(angle + 1.3 * phase)};
  }
};

TEST(NeighborIndex, SteadyStateRefreshesAreAllocationFree) {
  const geo::Region region{100.0, 100.0};
  constexpr std::size_t kNodes = 200;
  OscillatingField field;
  sim::RngStream rng(42);
  field.centers.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    field.centers.push_back(
        {rng.uniform(5.0, 95.0), rng.uniform(5.0, 95.0)});
  }

  net::NeighborIndex index(region, 10.0, 0.25, 1.0);
  std::vector<geo::Vec2> positions(kNodes);
  const double dt = 0.4;  // > tolerance, so every step really refreshes

  auto advance = [&](int steps) {
    for (int k = 0; k < steps; ++k) {
      ++field.step;
      const double now = dt * static_cast<double>(field.step);
      for (std::size_t i = 0; i < kNodes; ++i) {
        positions[i] = field.at(static_cast<NodeId>(i));
      }
      index.refresh(now, kNodes, [&](NodeId id) { return positions[id]; });
      ASSERT_EQ(index.built_at(), now);  // every step really rebuilt
    }
  };

  // Warm-up: two full motion cycles grow every bucket to the high-water
  // mark the workload can ever need.
  advance(2 * OscillatingField::kStepsPerCycle);
  const std::uint64_t warm_allocs = index.alloc_events();

  // Steady state: two more cycles of identical motion. Any further
  // allocation is a regression in the hoisting (clear() losing capacity,
  // a scratch buffer rebuilt per refresh, ...).
  advance(2 * OscillatingField::kStepsPerCycle);
  EXPECT_EQ(index.alloc_events(), warm_allocs);
}

}  // namespace
