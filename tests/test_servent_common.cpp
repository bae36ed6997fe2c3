// Base-servent machinery shared by all algorithms: factory, parameter
// derivation, start semantics, counters, and cross-algorithm behaviors.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "p2p_test_world.hpp"

namespace {

using namespace p2ptest;
using p2p::core::AlgorithmKind;
using p2p::core::MsgType;
using p2p::core::P2pParams;

TEST(Factory, CreatesEveryAlgorithm) {
  World world;
  const auto a = world.add_node(10, 10);
  const auto b = world.add_node(20, 10);
  const auto c = world.add_node(30, 10);
  const auto d = world.add_node(40, 10);
  EXPECT_EQ(world.add_servent(a, AlgorithmKind::kBasic).algorithm(),
            AlgorithmKind::kBasic);
  EXPECT_EQ(world.add_servent(b, AlgorithmKind::kRegular).algorithm(),
            AlgorithmKind::kRegular);
  EXPECT_EQ(world.add_servent(c, AlgorithmKind::kRandom).algorithm(),
            AlgorithmKind::kRandom);
  EXPECT_EQ(world.add_servent(d, AlgorithmKind::kHybrid).algorithm(),
            AlgorithmKind::kHybrid);
}

TEST(Params, DerivedValuesFollowThePaper) {
  P2pParams params;
  EXPECT_EQ(params.random_max_hops(), 2 * params.maxnhops);
  EXPECT_EQ(params.random_maxdist(), 2 * params.maxdist);
  // Table 2 defaults.
  EXPECT_EQ(params.maxnconn, 3);
  EXPECT_EQ(params.nhops_initial, 2);
  EXPECT_EQ(params.maxnhops, 6);
  EXPECT_EQ(params.maxdist, 6);
  EXPECT_EQ(params.maxnslaves, 3);
  EXPECT_EQ(params.query_ttl, 6);
}

TEST(Servent, SelfAndParamsAccessors) {
  World world;
  const auto a = world.add_node(10, 10);
  auto& servent = world.add_servent(a, AlgorithmKind::kRegular);
  EXPECT_EQ(servent.self(), a);
  EXPECT_EQ(servent.params().maxnconn, 3);
  EXPECT_EQ(servent.connections().size(), 0U);
  EXPECT_EQ(servent.queries_sent(), 0U);
}

TEST(Servent, HoldsIsFalseWithoutPlacement) {
  World world;
  const auto a = world.add_node(10, 10);
  auto& servent = world.add_servent(a, AlgorithmKind::kRegular);
  EXPECT_FALSE(servent.holds(1));
}

TEST(Servent, CountersTrackSentProbes) {
  World world;
  const auto a = world.add_node(10, 10);
  auto& servent = world.add_servent(a, AlgorithmKind::kRegular);
  world.start_all();
  world.sim().run_until(5.0);
  EXPECT_GE(servent.counters().sent_of(MsgType::kConnectProbe), 1U);
}

TEST(Servent, EstablishedAndClosedTelemetry) {
  World world;
  const auto a = world.add_node(50, 50);
  const auto b = world.add_node(55, 50);
  world.add_servent(a, AlgorithmKind::kRegular);
  world.add_servent(b, AlgorithmKind::kRegular);
  world.start_all();
  world.sim().run_until(60.0);
  ASSERT_TRUE(world.symmetric(a, b));
  EXPECT_EQ(world.servent(a).connections_established(), 1U);
  EXPECT_EQ(world.servent(a).connections_closed(), 0U);
  world.network().set_failed(b, true);
  world.sim().run_until(600.0);
  EXPECT_GE(world.servent(a).connections_closed(), 1U);
}

TEST(Servent, MixedAlgorithmsDoNotCrashTogether) {
  // Deployments can mix: a Basic node's blind offers must not corrupt a
  // Regular node's handshake state, and vice versa.
  World world;
  const auto a = world.add_node(50, 50);
  const auto b = world.add_node(54, 50);
  const auto c = world.add_node(52, 54);
  world.add_servent(a, AlgorithmKind::kBasic);
  world.add_servent(b, AlgorithmKind::kRegular);
  world.add_servent(c, AlgorithmKind::kRandom);
  world.start_all();
  world.sim().run_until(300.0);
  // Everyone stays within capacity; no assertion fired.
  for (const auto id : {a, b, c}) {
    EXPECT_LE(world.servent(id).connections().size(), 3U);
  }
}

TEST(Servent, PingTrafficHalvedVsBasicPair) {
  // Quantifies improvement #3 on an isolated pair: over the same horizon
  // a Basic pair moves ~2x the ping+pong volume of a Regular pair.
  const auto run_pair = [](AlgorithmKind kind) {
    World world;
    const auto a = world.add_node(50, 50);
    const auto b = world.add_node(55, 50);
    world.add_servent(a, kind);
    world.add_servent(b, kind);
    world.start_all();
    world.sim().run_until(2000.0);
    return world.servent(a).counters().ping_received() +
           world.servent(b).counters().ping_received();
  };
  const auto basic = run_pair(AlgorithmKind::kBasic);
  const auto regular = run_pair(AlgorithmKind::kRegular);
  ASSERT_GT(regular, 0U);
  const double ratio =
      static_cast<double>(basic) / static_cast<double>(regular);
  EXPECT_GT(ratio, 1.5) << "basic=" << basic << " regular=" << regular;
  EXPECT_LT(ratio, 3.0);
}

}  // namespace
