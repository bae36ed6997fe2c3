#include "mobility/random_direction.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace p2p::mobility {

RandomDirection::RandomDirection(const RandomWaypointParams& params,
                                 sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(params_.max_speed > 0.0);
  P2P_ASSERT(params_.min_speed > 0.0 && params_.min_speed <= params_.max_speed);
  leg_start_pos_ = {rng_.uniform(0.0, params_.region.width),
                    rng_.uniform(0.0, params_.region.height)};
  leg_end_pos_ = leg_start_pos_;
  P2P_ASSERT(params_.pause_first);
  pausing_ = true;
  leg_end_time_ = rng_.uniform(0.0, params_.max_pause);
}

void RandomDirection::begin_next_leg() {
  leg_start_time_ = leg_end_time_;
  if (pausing_) {
    pausing_ = false;
    leg_start_pos_ = leg_end_pos_;
    // Pick a direction; walk until the first boundary intersection.
    const double theta = rng_.uniform(0.0, 2.0 * 3.14159265358979323846);
    const geo::Vec2 dir{std::cos(theta), std::sin(theta)};
    // Distance to each boundary along dir (positive only).
    double tmax = 1e18;
    if (dir.x > 1e-12) tmax = std::min(tmax, (params_.region.width - leg_start_pos_.x) / dir.x);
    if (dir.x < -1e-12) tmax = std::min(tmax, (0.0 - leg_start_pos_.x) / dir.x);
    if (dir.y > 1e-12) tmax = std::min(tmax, (params_.region.height - leg_start_pos_.y) / dir.y);
    if (dir.y < -1e-12) tmax = std::min(tmax, (0.0 - leg_start_pos_.y) / dir.y);
    if (tmax < 0.0 || tmax > 1e17) tmax = 0.0;  // axis-parallel edge case
    leg_end_pos_ = params_.region.clamp(leg_start_pos_ + dir * tmax);
    const double speed = rng_.uniform(params_.min_speed, params_.max_speed);
    const double dist = geo::distance(leg_start_pos_, leg_end_pos_);
    leg_end_time_ = leg_start_time_ + (speed > 0.0 ? dist / speed : 0.0);
  } else {
    pausing_ = true;
    leg_start_pos_ = leg_end_pos_;
    leg_end_time_ = leg_start_time_ + rng_.uniform(0.0, params_.max_pause);
  }
}

Leg RandomDirection::leg_at(sim::SimTime t) {
  // As in RandomWaypoint::leg_at: leg_start_time_ <= t < leg_end_time_.
  while (t >= leg_end_time_) begin_next_leg();
  if (pausing_) {
    return {leg_start_time_, 1.0, leg_end_time_, leg_start_pos_, {}};
  }
  return {leg_start_time_, leg_end_time_ - leg_start_time_, leg_end_time_,
          leg_start_pos_, leg_end_pos_ - leg_start_pos_};
}

}  // namespace p2p::mobility
