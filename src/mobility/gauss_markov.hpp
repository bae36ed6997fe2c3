// Gauss-Markov mobility [Camp, Boleng, Davies 2002 §2.5].
//
// Speed and direction evolve as first-order autoregressive processes:
//   s_t = alpha*s_{t-1} + (1-alpha)*mean_s + sqrt(1-alpha^2)*N(0,sigma_s)
// (same for direction), sampled every `step` seconds with linear motion
// in between. alpha=1 is straight-line ballistic motion, alpha=0 is
// memoryless Brownian-like wandering. Near the boundary the mean
// direction is steered back toward the middle, the standard edge rule.
#pragma once

#include "geo/vec2.hpp"
#include "mobility/model.hpp"
#include "sim/rng.hpp"

namespace p2p::mobility {

struct GaussMarkovParams {
  geo::Region region{100.0, 100.0};
  double mean_speed = 0.7;    // m/s
  double alpha = 0.75;        // memory level in [0, 1]
  double step = 1.0;          // seconds between AR updates
};

class GaussMarkov final : public MobilityModel {
 public:
  GaussMarkov(const GaussMarkovParams& params, sim::RngStream rng);

  Leg leg_at(sim::SimTime t) override;

 private:
  void advance_step();

  GaussMarkovParams params_;
  sim::RngStream rng_;
  sim::SimTime segment_start_ = 0.0;
  geo::Vec2 pos_;       // position at segment_start_
  geo::Vec2 next_pos_;  // position at segment_start_ + step
  double speed_;
  double direction_;
};

}  // namespace p2p::mobility
