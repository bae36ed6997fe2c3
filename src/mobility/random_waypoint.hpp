// Random-waypoint mobility [Camp, Boleng, Davies 2002] — the model the
// paper uses ("Random Way model, maximum speed 1.0 m/s, maximum pause
// 100 s"; node interleaves moving and pause periods).
//
// The node starts at a uniform random point, repeatedly: pauses for a
// uniform [0, max_pause] interval, picks a uniform random destination and
// a uniform (0, max_speed] speed, and walks there in a straight line.
#pragma once

#include "geo/vec2.hpp"
#include "mobility/model.hpp"
#include "sim/rng.hpp"

namespace p2p::mobility {

struct RandomWaypointParams {
  geo::Region region{100.0, 100.0};
  double max_speed = 1.0;   // m/s, exclusive lower bound 0
  double min_speed = 0.05;  // m/s — avoids the RWP "speed decay to 0" artifact
  double max_pause = 100.0; // s
  bool pause_first = true;  // paper: node interleaves moving and pause periods
};

class RandomWaypoint final : public MobilityModel {
 public:
  /// `rng` must be a dedicated per-node stream (taken by value).
  RandomWaypoint(const RandomWaypointParams& params, sim::RngStream rng);

  Leg leg_at(sim::SimTime t) override;

 private:
  void begin_next_leg();

  RandomWaypointParams params_;
  sim::RngStream rng_;

  // Current leg: either pausing at leg_start_pos_ until leg_end_time_, or
  // moving from leg_start_pos_ to leg_end_pos_ over [leg_start_time_,
  // leg_end_time_].
  bool pausing_ = true;
  sim::SimTime leg_start_time_ = 0.0;
  sim::SimTime leg_end_time_ = 0.0;
  geo::Vec2 leg_start_pos_;
  geo::Vec2 leg_end_pos_;
};

}  // namespace p2p::mobility
