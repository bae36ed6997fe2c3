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
#include "sim/rng.hpp"

namespace p2p::mobility {

struct RandomDirectionParams {
  geo::Region region{100.0, 100.0};
  double max_speed = 1.0;
  double min_speed = 0.05;
  double max_pause = 100.0;
};

class RandomDirection final : public MobilityModel {
 public:
  RandomDirection(const RandomDirectionParams& params, sim::RngStream rng);

  Leg leg_at(sim::SimTime t) override;

 private:
  void begin_next_leg();

  RandomDirectionParams params_;
  sim::RngStream rng_;
  bool pausing_ = true;
  sim::SimTime leg_start_time_ = 0.0;
  sim::SimTime leg_end_time_ = 0.0;
  geo::Vec2 leg_start_pos_;
  geo::Vec2 leg_end_pos_;  // boundary hit point of the current movement
};

}  // namespace p2p::mobility
