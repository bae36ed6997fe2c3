// Random-direction mobility [Camp, Boleng, Davies 2002 §2.3].
//
// The node picks a uniform direction and speed, travels until it hits the
// region boundary, pauses, then picks a new direction. Compared to random
// waypoint this avoids the center-density bias — nodes spend more time
// near the edges, giving sparser average connectivity for the same node
// count (one of the mobility effects the paper's §8 wants to study).
#pragma once

#include "geo/vec2.hpp"
#include "mobility/model.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/rng.hpp"

namespace p2p::mobility {

/// Takes random waypoint's parameters: the same region, speed range and
/// pause bound. The node always starts paused (`pause_first` must be true).
class RandomDirection final : public MobilityModel {
 public:
  RandomDirection(const RandomWaypointParams& params, sim::RngStream rng);

  Leg leg_at(sim::SimTime t) override;

 private:
  void begin_next_leg();

  RandomWaypointParams params_;
  sim::RngStream rng_;
  bool pausing_ = true;
  sim::SimTime leg_start_time_ = 0.0;
  sim::SimTime leg_end_time_ = 0.0;
  geo::Vec2 leg_start_pos_;
  geo::Vec2 leg_end_pos_;  // boundary hit point of the current movement
};

}  // namespace p2p::mobility
