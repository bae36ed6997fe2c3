// Packet tracing: writer line format, counter aggregation, network
// integration via the observer hook.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "mobility/model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace {

using namespace p2p;
using trace::Counter;
using trace::EventKind;
using trace::Writer;

TEST(Trace, EventCodesMatchNs2Convention) {
  EXPECT_EQ(trace::event_code(EventKind::kTransmit), 's');
  EXPECT_EQ(trace::event_code(EventKind::kDeliver), 'r');
  EXPECT_EQ(trace::event_code(EventKind::kDrop), 'd');
}

TEST(Trace, WriterRendersParsableLines) {
  std::ostringstream os;
  Writer writer(os);
  writer.record({1.5, EventKind::kTransmit, 3, net::kBroadcast, 64});
  writer.record({2.25, EventKind::kDeliver, 7, 3, 64});
  writer.record({3.0, EventKind::kDrop, 3, 9, 128});

  EXPECT_EQ(os.str(),
            "s 1.5 3 bcast 64\n"
            "r 2.25 7 3 64\n"
            "d 3 3 9 128\n");
}

TEST(Trace, CounterAggregatesPerKindAndNode) {
  Counter counter(4);
  counter.record({0.0, EventKind::kTransmit, 0, net::kBroadcast, 100});
  counter.record({0.1, EventKind::kDeliver, 1, 0, 100});
  counter.record({0.1, EventKind::kDeliver, 2, 0, 100});
  counter.record({0.2, EventKind::kDrop, 0, 3, 50});
  EXPECT_EQ(counter.count(EventKind::kTransmit), 1U);
  EXPECT_EQ(counter.count(EventKind::kDeliver), 2U);
  EXPECT_EQ(counter.count(EventKind::kDrop), 1U);
  EXPECT_EQ(counter.bytes(EventKind::kDeliver), 200U);
  EXPECT_EQ(counter.node_count(1, EventKind::kDeliver), 1U);
  EXPECT_EQ(counter.node_count(3, EventKind::kDeliver), 0U);
}

struct NoopPayload final : net::FramePayload {};

TEST(Trace, NetworkObserverSeesTransmitsDeliveriesAndDrops) {
  sim::Simulator sim;
  net::NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  net::Network network(sim, params, sim::RngStream(1));
  const auto a = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  const auto b = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{5, 0}));
  const auto far = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{90, 90}));

  Counter counter(3);
  trace::NetworkAdapter adapter(counter);
  network.set_observer(&adapter);

  network.broadcast(a, network.pools().make<NoopPayload>(), 64);
  network.unicast(a, b, network.pools().make<NoopPayload>(), 32);
  network.unicast(a, far, network.pools().make<NoopPayload>(), 32);  // drop
  sim.run();

  EXPECT_EQ(counter.count(EventKind::kTransmit), 3U);
  EXPECT_EQ(counter.count(EventKind::kDeliver), 2U);  // bcast->b, unicast->b
  EXPECT_EQ(counter.count(EventKind::kDrop), 1U);
  EXPECT_EQ(counter.node_count(a, EventKind::kTransmit), 3U);
  EXPECT_EQ(counter.node_count(b, EventKind::kDeliver), 2U);

  // Detaching stops recording.
  network.set_observer(nullptr);
  network.broadcast(a, network.pools().make<NoopPayload>(), 64);
  sim.run();
  EXPECT_EQ(counter.count(EventKind::kTransmit), 3U);
}

TEST(Trace, ObserverMatchesNetworkCounters) {
  sim::Simulator sim;
  net::NetworkParams params;
  net::Network network(sim, params, sim::RngStream(2));
  for (int i = 0; i < 6; ++i) {
    network.add_node(std::make_unique<mobility::StaticModel>(
        geo::Vec2{5.0 * i, 0.0}));
  }
  Counter counter(6);
  trace::NetworkAdapter adapter(counter);
  network.set_observer(&adapter);
  for (net::NodeId n = 0; n < 6; ++n) {
    network.broadcast(n, network.pools().make<NoopPayload>(), 48);
  }
  sim.run();
  EXPECT_EQ(counter.count(EventKind::kTransmit), network.frames_transmitted());
  EXPECT_EQ(counter.count(EventKind::kDeliver), network.frames_delivered());
}

}  // namespace
