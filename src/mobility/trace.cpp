#include "mobility/trace.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace p2p::mobility {

TraceModel::TraceModel(geo::Vec2 initial, std::vector<TraceStep> steps)
    : initial_(initial), steps_(std::move(steps)) {
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    P2P_ASSERT_MSG(steps_[i - 1].start_time <= steps_[i].start_time,
                   "trace steps must be sorted by start_time");
  }
}

geo::Vec2 TraceModel::interpolate(const TraceStep& s, geo::Vec2 from,
                                  sim::SimTime t) {
  if (s.speed <= 0.0) return s.target;  // teleport
  const double dist = geo::distance(from, s.target);
  if (dist == 0.0) return s.target;
  const double travel = (t - s.start_time) * s.speed;
  if (travel >= dist) return s.target;
  return from + (s.target - from) * (travel / dist);
}

Leg TraceModel::leg_at(sim::SimTime t) {
  // Walk the schedule: each step moves the node from wherever the previous
  // steps left it at the step's start_time, until it is preempted by the
  // next step or the query time is reached.
  geo::Vec2 pos = initial_;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].start_time > t) break;
    const bool preempted =
        i + 1 < steps_.size() && steps_[i + 1].start_time <= t;
    const sim::SimTime horizon = preempted ? steps_[i + 1].start_time : t;
    pos = interpolate(steps_[i], pos, horizon);
  }
  return {t, 1.0, std::nextafter(t, std::numeric_limits<double>::infinity()),
          pos, {}};
}

}  // namespace p2p::mobility
