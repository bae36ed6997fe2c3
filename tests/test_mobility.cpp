// Mobility models: random waypoint invariants (in-bounds, speed-bounded,
// actually moves) and the scripted trace model incl. preemption.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/vec2.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/trace.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p;
using mobility::RandomWaypoint;
using mobility::RandomWaypointParams;
using mobility::StaticModel;
using mobility::TraceModel;
using mobility::TraceStep;

TEST(StaticModel, NeverMoves) {
  StaticModel model({3.0, 4.0});
  EXPECT_EQ(model.position_at(0.0), (geo::Vec2{3.0, 4.0}));
  EXPECT_EQ(model.position_at(1e6), (geo::Vec2{3.0, 4.0}));
  model.set_position({1.0, 1.0});
  EXPECT_EQ(model.position_at(1e6), (geo::Vec2{1.0, 1.0}));
}

class RandomWaypointSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWaypointSeeded, StaysInsideRegion) {
  RandomWaypointParams params;
  params.region = {100.0, 100.0};
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  for (double t = 0.0; t <= 7200.0; t += 1.7) {
    const geo::Vec2 p = model.position_at(t);
    EXPECT_TRUE(params.region.contains(p))
        << "escaped at t=" << t << " -> (" << p.x << ", " << p.y << ")";
  }
}

TEST_P(RandomWaypointSeeded, SpeedNeverExceedsMax) {
  RandomWaypointParams params;
  params.max_speed = 1.0;
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  geo::Vec2 prev = model.position_at(0.0);
  for (double t = 0.5; t <= 3600.0; t += 0.5) {
    const geo::Vec2 cur = model.position_at(t);
    const double speed = geo::distance(prev, cur) / 0.5;
    EXPECT_LE(speed, params.max_speed + 1e-9);
    prev = cur;
  }
}

TEST_P(RandomWaypointSeeded, EventuallyMoves) {
  RandomWaypointParams params;
  params.max_pause = 10.0;
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  const geo::Vec2 start = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.0; t <= 600.0; t += 5.0) {
    moved = std::max(moved, geo::distance(start, model.position_at(t)));
  }
  EXPECT_GT(moved, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWaypointSeeded,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(RandomWaypoint, InitialPositionIsInsideAndReported) {
  RandomWaypointParams params;
  params.region = {40.0, 20.0};
  RandomWaypoint model(params, sim::RngStream(5));
  EXPECT_TRUE(params.region.contains(model.initial_position()));
  EXPECT_EQ(model.position_at(0.0), model.initial_position());
}

class RandomDirectionSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDirectionSeeded, StaysInsideAndMoves) {
  mobility::RandomDirectionParams params;
  params.region = {80.0, 60.0};
  params.max_pause = 10.0;
  mobility::RandomDirection model(params, sim::RngStream(GetParam()));
  const geo::Vec2 start = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.0; t <= 2000.0; t += 2.3) {
    const geo::Vec2 p = model.position_at(t);
    ASSERT_TRUE(params.region.contains(p)) << "escaped at t=" << t;
    moved = std::max(moved, geo::distance(start, p));
  }
  EXPECT_GT(moved, 5.0);
}

TEST_P(RandomDirectionSeeded, LegsEndOnTheBoundary) {
  // Sample densely: random-direction nodes must repeatedly touch an edge
  // (the model's defining property vs random waypoint).
  mobility::RandomDirectionParams params;
  params.region = {50.0, 50.0};
  params.max_pause = 1.0;
  mobility::RandomDirection model(params, sim::RngStream(GetParam()));
  int boundary_visits = 0;
  for (double t = 0.0; t <= 2000.0; t += 0.5) {
    const geo::Vec2 p = model.position_at(t);
    const bool on_edge = p.x < 0.5 || p.x > 49.5 || p.y < 0.5 || p.y > 49.5;
    if (on_edge) ++boundary_visits;
  }
  EXPECT_GT(boundary_visits, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDirectionSeeded,
                         ::testing::Values(1, 7, 23));

class GaussMarkovSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaussMarkovSeeded, StaysInsideAndMovesSmoothly) {
  mobility::GaussMarkovParams params;
  params.region = {100.0, 100.0};
  mobility::GaussMarkov model(params, sim::RngStream(GetParam()));
  geo::Vec2 prev = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.5; t <= 1000.0; t += 0.5) {
    const geo::Vec2 p = model.position_at(t);
    ASSERT_TRUE(params.region.contains(p)) << "escaped at t=" << t;
    // Smoothness: per half-second displacement bounded by a few sigma of
    // the speed process.
    EXPECT_LT(geo::distance(prev, p), 3.0);
    moved = std::max(moved, geo::distance(model.position_at(0.0), p));
    prev = p;
  }
  EXPECT_GT(moved, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaussMarkovSeeded,
                         ::testing::Values(2, 11, 31));

TEST(GaussMarkov, AlphaOneIsBallistic) {
  // With alpha = 1 and zero noise influence, speed and heading never
  // change: displacement grows linearly until the boundary clamp.
  mobility::GaussMarkovParams params;
  params.alpha = 1.0;
  mobility::GaussMarkov model(params, sim::RngStream(3));
  const geo::Vec2 p1 = model.position_at(1.0);
  const geo::Vec2 p2 = model.position_at(2.0);
  const geo::Vec2 p3 = model.position_at(3.0);
  const geo::Vec2 d1 = p2 - p1;
  const geo::Vec2 d2 = p3 - p2;
  EXPECT_NEAR(d1.x, d2.x, 1e-9);
  EXPECT_NEAR(d1.y, d2.y, 1e-9);
}

TEST(TraceModel, HoldsInitialPositionBeforeFirstStep) {
  TraceModel model({5.0, 5.0}, {{10.0, {20.0, 5.0}, 1.0}});
  EXPECT_EQ(model.position_at(0.0), (geo::Vec2{5.0, 5.0}));
  EXPECT_EQ(model.position_at(9.99), (geo::Vec2{5.0, 5.0}));
}

TEST(TraceModel, MovesLinearlyAtGivenSpeed) {
  TraceModel model({0.0, 0.0}, {{0.0, {10.0, 0.0}, 2.0}});
  EXPECT_NEAR(model.position_at(1.0).x, 2.0, 1e-9);
  EXPECT_NEAR(model.position_at(2.5).x, 5.0, 1e-9);
  EXPECT_NEAR(model.position_at(5.0).x, 10.0, 1e-9);
  EXPECT_NEAR(model.position_at(100.0).x, 10.0, 1e-9);  // stays at target
}

TEST(TraceModel, SpeedZeroTeleports) {
  TraceModel model({0.0, 0.0}, {{5.0, {30.0, 40.0}, 0.0}});
  EXPECT_EQ(model.position_at(4.9), (geo::Vec2{0.0, 0.0}));
  EXPECT_EQ(model.position_at(5.0), (geo::Vec2{30.0, 40.0}));
}

TEST(TraceModel, LaterStepPreemptsUnfinishedMove) {
  // Move toward (10,0) at 1 m/s from t=0; at t=4 divert to (4, 10).
  TraceModel model({0.0, 0.0},
                   {{0.0, {10.0, 0.0}, 1.0}, {4.0, {4.0, 10.0}, 1.0}});
  EXPECT_NEAR(model.position_at(4.0).x, 4.0, 1e-9);
  const geo::Vec2 later = model.position_at(9.0);  // 5 s toward (4,10)
  EXPECT_NEAR(later.x, 4.0, 1e-9);
  EXPECT_NEAR(later.y, 5.0, 1e-9);
}

}  // namespace
