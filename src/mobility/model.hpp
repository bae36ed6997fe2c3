// Mobility model interface.
//
// The kernel advances time monotonically, so models only have to answer
// leg queries for non-decreasing times; they may advance internal state on
// each call (lazily generating movement legs). A caller may keep the
// returned Leg and evaluate it at any later time before its `until`,
// without calling the model again.
#pragma once

#include <limits>

#include "geo/vec2.hpp"
#include "sim/time.hpp"

namespace p2p::mobility {

/// One constant-velocity piece of a trajectory, valid for t < until:
/// from + delta * ((t - start) / span). A pause is delta = {0, 0} with
/// span = 1. The models evaluate their own legs with this expression, in
/// this operation order, so a cached leg gives the model's exact position.
struct Leg {
  sim::SimTime start = 0.0;
  double span = 1.0;
  sim::SimTime until = -std::numeric_limits<double>::infinity();
  geo::Vec2 from;
  geo::Vec2 delta;

  geo::Vec2 at(sim::SimTime t) const noexcept {
    return from + delta * ((t - start) / span);
  }
};

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// The leg covering `t` (t < until). Callers guarantee `t` is
  /// non-decreasing across calls on a given model instance.
  virtual Leg leg_at(sim::SimTime t) = 0;

  /// Position at simulation time `t`, under leg_at's ordering contract.
  geo::Vec2 position_at(sim::SimTime t) { return leg_at(t).at(t); }
};

/// A node that never moves.
class StaticModel final : public MobilityModel {
 public:
  explicit StaticModel(geo::Vec2 pos) noexcept : pos_(pos) {}
  Leg leg_at(sim::SimTime /*t*/) override {
    return {0.0, 1.0, std::numeric_limits<double>::infinity(), pos_, {}};
  }

 private:
  geo::Vec2 pos_;
};

}  // namespace p2p::mobility
