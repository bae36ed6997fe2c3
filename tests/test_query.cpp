// Gnutella-like query engine (§7.2): TTL, forward-once, never-to-sender/
// origin, direct answers, and the request lifecycle.
#include <gtest/gtest.h>

#include "p2p_test_world.hpp"

namespace {

using namespace p2ptest;
using p2p::content::Placement;
using p2p::content::ZipfLaw;
using p2p::core::AlgorithmKind;
using p2p::core::MsgType;

// A placement where every member holds file 1 (ZipfLaw(1, 1.0)).
Placement full_placement(std::uint32_t members) {
  return Placement(ZipfLaw(1, 1.0), members, p2p::sim::RngStream(1));
}

struct QueryWorld {
  p2p::core::P2pParams params;
  std::unique_ptr<World> world;
  std::vector<p2p::net::NodeId> ids;
  Placement placement;
  TestRecorder recorder;

  explicit QueryWorld(std::size_t n, int ttl = 6, double spacing = 8.0)
      : placement(full_placement(static_cast<std::uint32_t>(n))) {
    params.enable_queries = true;
    params.query_ttl = ttl;
    params.query_gap_min = 30.0;
    params.query_gap_max = 40.0;
    world = std::make_unique<World>(params);
    ids = make_line(*world, n, spacing);
    for (std::size_t i = 0; i < n; ++i) {
      auto& servent = world->add_servent(ids[i], AlgorithmKind::kRegular);
      servent.set_placement(&placement, static_cast<std::uint32_t>(i));
      servent.set_query_recorder(&recorder);
    }
  }
};

TEST(Query, AnswersArriveAndAreRecorded) {
  QueryWorld qw(3);
  qw.world->start_all();
  // Let the overlay form and queries fire (first query within ~45 s + 30 s
  // response window).
  qw.world->sim().run_until(400.0);
  ASSERT_FALSE(qw.recorder.requests.empty());
  bool any_answered = false;
  for (const auto& request : qw.recorder.requests) {
    EXPECT_EQ(request.file, 1U);
    if (request.answers > 0) {
      any_answered = true;
      EXPECT_GE(request.min_physical, 1);
      EXPECT_GE(request.min_p2p, 1);
    }
  }
  EXPECT_TRUE(any_answered);
}

TEST(Query, EveryHolderOnPathAnswersOnce) {
  QueryWorld qw(4);
  qw.world->start_all();
  qw.world->sim().run_until(500.0);
  // Each member issued >= 1 query on a line overlay of 4 nodes where
  // everyone holds the file: answered requests see <= 3 answers (each
  // node answers a given query at most once — the forward-once rule).
  for (const auto& request : qw.recorder.requests) {
    EXPECT_LE(request.answers, 3);
  }
}

TEST(Query, TtlOneRestrictsToDirectOverlayNeighbors) {
  QueryWorld qw(5, /*ttl=*/1);
  qw.world->start_all();
  qw.world->sim().run_until(500.0);
  // With TTL 1 a query never travels past the first overlay hop, so every
  // answer reports a 1-hop overlay path.
  bool any = false;
  for (const auto& request : qw.recorder.requests) {
    if (request.answers > 0) {
      any = true;
      EXPECT_EQ(request.min_p2p, 1);
    }
  }
  EXPECT_TRUE(any);
}

TEST(Query, UnansweredRequestsAreRecordedAsSuch) {
  // Nobody holds rank-2 files in a 1-file catalog... instead: two isolated
  // nodes out of radio range never get answers.
  p2p::core::P2pParams params;
  params.enable_queries = true;
  params.query_gap_min = 30.0;
  params.query_gap_max = 40.0;
  World world(params);
  const auto a = world.add_node(10, 10);
  const auto b = world.add_node(300, 300);  // unreachable
  const Placement placement = full_placement(2);
  TestRecorder recorder;
  for (const auto& [id, idx] :
       {std::pair{a, 0U}, std::pair{b, 1U}}) {
    auto& servent = world.add_servent(id, AlgorithmKind::kRegular);
    servent.set_placement(&placement, idx);
    servent.set_query_recorder(&recorder);
  }
  world.start_all();
  world.sim().run_until(300.0);
  ASSERT_FALSE(recorder.requests.empty());
  for (const auto& request : recorder.requests) {
    EXPECT_EQ(request.answers, 0);
    EXPECT_EQ(request.min_physical, -1);
  }
}

TEST(Query, QueryCountsAppearInCounters) {
  QueryWorld qw(3);
  qw.world->start_all();
  qw.world->sim().run_until(400.0);
  std::uint64_t queries_rx = 0, hits_rx = 0;
  for (const auto id : qw.ids) {
    queries_rx += qw.world->servent(id).counters().query_received();
    hits_rx +=
        qw.world->servent(id).counters().received_of(MsgType::kQueryHit);
  }
  EXPECT_GT(queries_rx, 0U);
  EXPECT_GT(hits_rx, 0U);
}

TEST(Query, RequestCadenceFollowsThinkTime) {
  // With gap in [30, 40] and a 30 s response window, a member completes
  // roughly one request per 60-70 s.
  p2p::core::P2pParams params;
  params.enable_queries = true;
  params.query_gap_min = 30.0;
  params.query_gap_max = 40.0;
  World world(params);
  const auto a = world.add_node(10, 10);
  const Placement placement = full_placement(1);
  TestRecorder recorder;
  auto& servent = world.add_servent(a, AlgorithmKind::kRegular);
  servent.set_placement(&placement, 0);
  servent.set_query_recorder(&recorder);
  world.start_all();
  world.sim().run_until(700.0);
  EXPECT_GE(recorder.requests.size(), 8U);
  EXPECT_LE(recorder.requests.size(), 12U);
}

TEST(Query, DisabledQueriesIssueNothing) {
  p2p::core::P2pParams params;
  params.enable_queries = false;
  World world(params);
  const auto a = world.add_node(50, 50);
  const auto b = world.add_node(55, 50);
  const Placement placement = full_placement(2);
  TestRecorder recorder;
  for (const auto& [id, idx] : {std::pair{a, 0U}, std::pair{b, 1U}}) {
    auto& servent = world.add_servent(id, AlgorithmKind::kRegular);
    servent.set_placement(&placement, idx);
    servent.set_query_recorder(&recorder);
  }
  world.start_all();
  world.sim().run_until(300.0);
  EXPECT_TRUE(recorder.requests.empty());
  EXPECT_EQ(world.servent(a).counters().query_received(), 0U);
}

TEST(Query, HoldsReflectsPlacement) {
  p2p::core::P2pParams params;
  World world(params);
  const auto a = world.add_node(50, 50);
  const ZipfLaw law(4, 0.5);
  const Placement placement(law, 10, p2p::sim::RngStream(3));
  auto& servent = world.add_servent(a, AlgorithmKind::kRegular);
  servent.set_placement(&placement, 4);
  for (p2p::content::FileId f = 1; f <= 4; ++f) {
    EXPECT_EQ(servent.holds(f), placement.holds(4, f));
  }
}

}  // namespace
