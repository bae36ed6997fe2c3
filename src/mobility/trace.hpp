// Scripted mobility: play back an explicit waypoint schedule.
//
// Used by tests for deterministic link formation and breakage.
#pragma once

#include <vector>

#include "geo/vec2.hpp"
#include "mobility/model.hpp"

namespace p2p::mobility {

/// One scheduled movement: at `start_time`, begin moving to `target` at
/// `speed` m/s (speed 0 = teleport instantly).
struct TraceStep {
  sim::SimTime start_time = 0.0;
  geo::Vec2 target;
  double speed = 0.0;
};

class TraceModel final : public MobilityModel {
 public:
  /// `initial` is the position before the first step. Steps must be sorted
  /// by start_time; a step preempts any unfinished previous movement.
  TraceModel(geo::Vec2 initial, std::vector<TraceStep> steps);

  /// A one-instant leg: the schedule is replayed from the start on every
  /// call, which is cheap for the short scripts the tests use.
  Leg leg_at(sim::SimTime t) override;

 private:
  /// Position at time t assuming motion began at (t0, from) toward step s.
  static geo::Vec2 interpolate(const TraceStep& s, geo::Vec2 from, sim::SimTime t);

  geo::Vec2 initial_;
  std::vector<TraceStep> steps_;
};

}  // namespace p2p::mobility
