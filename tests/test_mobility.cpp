// Mobility models: random waypoint invariants (in-bounds, speed-bounded,
// actually moves), the scripted trace model incl. preemption, and the leg
// contract every model gives a caller that caches legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

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
  EXPECT_TRUE(params.region.contains(model.position_at(0.0)));
}

class RandomDirectionSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDirectionSeeded, StaysInsideAndMoves) {
  mobility::RandomWaypointParams params;
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
  mobility::RandomWaypointParams params;
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

// The leg contract net::Network's leg cache relies on: a leg taken at t
// gives, anywhere in [t, until), the very bits a same-seeded twin's fresh
// position_at returns. Twin `cached` is asked once per leg; twin `fresh`
// at every sampled instant. The instants are a stride grid plus, for every
// leg, the last double before `until` and `until` itself (where the next
// leg is taken). Consecutive legs must also meet: a leg's position at its
// end is the next leg's start, up to rounding — except for TraceModel,
// whose one-instant legs (`instant_legs`) can teleport.
void expect_legs_match_fresh(mobility::MobilityModel& cached,
                             mobility::MobilityModel& fresh, double horizon,
                             double stride, bool instant_legs = false) {
  const auto bits = [](geo::Vec2 p) {
    return std::pair{std::bit_cast<std::uint64_t>(p.x),
                     std::bit_cast<std::uint64_t>(p.y)};
  };
  double t = 0.0;
  int legs = 0;
  mobility::Leg prev;
  while (t <= horizon) {
    const mobility::Leg leg = cached.leg_at(t);
    ++legs;
    ASSERT_LT(t, leg.until) << "leg " << legs;
    if (legs > 1 && !instant_legs) {
      const geo::Vec2 end = prev.at(t);
      const geo::Vec2 start = leg.at(t);
      EXPECT_NEAR(end.x, start.x, 1e-9) << "jump at t=" << t;
      EXPECT_NEAR(end.y, start.y, 1e-9) << "jump at t=" << t;
    }
    const double last =
        std::nextafter(leg.until, -std::numeric_limits<double>::infinity());
    for (double s = t; s <= horizon; s = std::min(s + stride, last)) {
      EXPECT_EQ(bits(leg.at(s)), bits(fresh.position_at(s)))
          << "t=" << s << " in leg " << legs << " taken at " << t;
      if (s == last) break;
    }
    prev = leg;
    t = instant_legs ? t + stride : leg.until;
  }
  EXPECT_GT(legs, 2);
}

TEST(Mobility, LegTakenEarlierMatchesFreshModel) {
  // A small region keeps legs short, so a run crosses many of them. A
  // max_pause of 1e-13 is below the spacing of doubles near t = 100 s, so
  // many pauses end at the instant they start (zero-length legs, skipped
  // inside leg_at) or one ulp later.
  for (const bool pause_first : {true, false}) {
    for (const double max_pause : {20.0, 1e-13}) {
      SCOPED_TRACE(testing::Message()
                   << "RandomWaypoint pause_first=" << pause_first
                   << " max_pause=" << max_pause);
      RandomWaypointParams params;
      params.region = {30.0, 20.0};
      params.max_pause = max_pause;
      params.pause_first = pause_first;
      RandomWaypoint cached(params, sim::RngStream(41));
      RandomWaypoint fresh(params, sim::RngStream(41));
      expect_legs_match_fresh(cached, fresh, 1500.0, 0.37);
    }
  }
  for (const double max_pause : {20.0, 1e-13}) {
    SCOPED_TRACE(testing::Message() << "RandomDirection max_pause=" << max_pause);
    RandomWaypointParams params;
    params.region = {30.0, 20.0};
    params.max_pause = max_pause;
    mobility::RandomDirection cached(params, sim::RngStream(43));
    mobility::RandomDirection fresh(params, sim::RngStream(43));
    expect_legs_match_fresh(cached, fresh, 1500.0, 0.37);
  }
  {
    SCOPED_TRACE("GaussMarkov");
    mobility::GaussMarkovParams params;
    params.region = {30.0, 20.0};
    params.step = 0.7;  // segment ends are running sums that round
    mobility::GaussMarkov cached(params, sim::RngStream(47));
    mobility::GaussMarkov fresh(params, sim::RngStream(47));
    expect_legs_match_fresh(cached, fresh, 300.0, 0.37);
  }
  {
    SCOPED_TRACE("StaticModel");
    StaticModel cached({3.0, 4.0});
    StaticModel fresh({3.0, 4.0});
    const mobility::Leg leg = cached.leg_at(0.0);
    EXPECT_EQ(leg.until, std::numeric_limits<double>::infinity());
    for (const double s : {0.0, 0.37, 1e6}) {
      EXPECT_EQ(leg.at(s), fresh.position_at(s));
    }
  }
  {
    SCOPED_TRACE("TraceModel");
    const std::vector<TraceStep> steps{{0.0, {10.0, 0.0}, 1.0},
                                       {4.0, {4.0, 10.0}, 1.0},
                                       {20.0, {0.0, 0.0}, 0.0}};
    TraceModel cached({0.0, 0.0}, steps);
    TraceModel fresh({0.0, 0.0}, steps);
    expect_legs_match_fresh(cached, fresh, 30.0, 0.37, /*instant_legs=*/true);
  }
}

}  // namespace
