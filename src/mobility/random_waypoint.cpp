#include "mobility/random_waypoint.hpp"

#include "util/assert.hpp"

namespace p2p::mobility {

RandomWaypoint::RandomWaypoint(const RandomWaypointParams& params,
                               sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(params_.max_speed > 0.0);
  P2P_ASSERT(params_.min_speed > 0.0 && params_.min_speed <= params_.max_speed);
  P2P_ASSERT(params_.max_pause >= 0.0);
  leg_start_pos_ = {rng_.uniform(0.0, params_.region.width),
                    rng_.uniform(0.0, params_.region.height)};
  leg_end_pos_ = leg_start_pos_;
  if (params_.pause_first) {
    pausing_ = true;
    leg_end_time_ = rng_.uniform(0.0, params_.max_pause);
  } else {
    pausing_ = true;
    leg_end_time_ = 0.0;  // immediately transitions into a movement leg
  }
}

void RandomWaypoint::begin_next_leg() {
  leg_start_time_ = leg_end_time_;
  if (pausing_) {
    // Start moving toward a fresh waypoint.
    pausing_ = false;
    leg_start_pos_ = leg_end_pos_;
    leg_end_pos_ = {rng_.uniform(0.0, params_.region.width),
                    rng_.uniform(0.0, params_.region.height)};
    const double speed = rng_.uniform(params_.min_speed, params_.max_speed);
    const double dist = geo::distance(leg_start_pos_, leg_end_pos_);
    leg_end_time_ = leg_start_time_ + (speed > 0.0 ? dist / speed : 0.0);
  } else {
    // Arrived: pause at the waypoint.
    pausing_ = true;
    leg_start_pos_ = leg_end_pos_;
    leg_end_time_ = leg_start_time_ + rng_.uniform(0.0, params_.max_pause);
  }
}

Leg RandomWaypoint::leg_at(sim::SimTime t) {
  // Zero-length legs are skipped here, so the returned leg has
  // leg_start_time_ <= t < leg_end_time_ and a positive span.
  while (t >= leg_end_time_) begin_next_leg();
  if (pausing_) {
    return {leg_start_time_, 1.0, leg_end_time_, leg_start_pos_, {}};
  }
  return {leg_start_time_, leg_end_time_ - leg_start_time_, leg_end_time_,
          leg_start_pos_, leg_end_pos_ - leg_start_pos_};
}

}  // namespace p2p::mobility
