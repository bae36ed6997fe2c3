#include "mobility/gauss_markov.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace p2p::mobility {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kSpeedSigma = 0.3;      // m/s
constexpr double kDirectionSigma = 0.6;  // radians
constexpr double kEdgeMargin = 10.0;     // steer back when this close to a border

double gaussian(sim::RngStream& rng) { return rng.normal(0.0, 1.0); }
}  // namespace

GaussMarkov::GaussMarkov(const GaussMarkovParams& params, sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(params_.alpha >= 0.0 && params_.alpha <= 1.0);
  P2P_ASSERT(params_.step > 0.0);
  pos_ = {rng_.uniform(0.0, params_.region.width),
          rng_.uniform(0.0, params_.region.height)};
  speed_ = params_.mean_speed;
  direction_ = rng_.uniform(0.0, 2.0 * kPi);
  next_pos_ = pos_;
  advance_step();  // compute the first segment target
}

void GaussMarkov::advance_step() {
  pos_ = next_pos_;

  // Steer the mean direction back toward the middle near edges.
  double mean_dir = direction_;
  const bool near_left = pos_.x < kEdgeMargin;
  const bool near_right = pos_.x > params_.region.width - kEdgeMargin;
  const bool near_bottom = pos_.y < kEdgeMargin;
  const bool near_top = pos_.y > params_.region.height - kEdgeMargin;
  if (near_left || near_right || near_bottom || near_top) {
    const geo::Vec2 center{params_.region.width / 2.0,
                           params_.region.height / 2.0};
    mean_dir = std::atan2(center.y - pos_.y, center.x - pos_.x);
  }

  const double a = params_.alpha;
  const double memoryless = std::sqrt(1.0 - a * a);
  speed_ = a * speed_ + (1.0 - a) * params_.mean_speed +
           memoryless * kSpeedSigma * gaussian(rng_);
  if (speed_ < 0.0) speed_ = 0.0;
  direction_ = a * direction_ + (1.0 - a) * mean_dir +
               memoryless * kDirectionSigma * gaussian(rng_);

  const geo::Vec2 delta{std::cos(direction_) * speed_ * params_.step,
                        std::sin(direction_) * speed_ * params_.step};
  next_pos_ = params_.region.clamp(pos_ + delta);
}

Leg GaussMarkov::leg_at(sim::SimTime t) {
  while (t >= segment_start_ + params_.step) {
    segment_start_ += params_.step;
    advance_step();
  }
  return {segment_start_, params_.step, segment_start_ + params_.step, pos_,
          next_pos_ - pos_};
}

}  // namespace p2p::mobility
