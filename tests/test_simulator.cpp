// Simulator: time advance, scheduling semantics, stop, cancellation from
// inside handlers, and the Timer helper.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace {

using p2p::sim::kTimeNever;
using p2p::sim::Simulator;
using p2p::sim::Timer;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_processed(), 0U);
}

TEST(Simulator, AdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.at(2.5, [&] { seen.push_back(sim.now()); });
  sim.at(1.0, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.at(10.0, [&] { sim.after(5.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.at(10.0, [&] { sim.at(3.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizonButIncludesBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(2.0 + 1e-9, [&] { ++fired; });
  const auto processed = sim.run_until(2.0);
  EXPECT_EQ(processed, 2U);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_pending(), 1U);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, HandlerCanCancelLaterEvent) {
  Simulator sim;
  bool fired = false;
  const auto victim = sim.at(2.0, [&] { fired = true; });
  sim.at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsScheduledAtSameTimeAsNowStillFire) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] {
    sim.after(0.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5U);
  EXPECT_EQ(sim.events_scheduled(), 5U);
}

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.restart(5.0);
  EXPECT_TRUE(timer.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(Timer, RestartSupersedesPreviousSchedule) {
  Simulator sim;
  std::vector<double> fire_times;
  Timer timer(sim, [&] { fire_times.push_back(sim.now()); });
  timer.restart(5.0);
  sim.at(1.0, [&] { timer.restart(10.0); });
  sim.run();
  ASSERT_EQ(fire_times.size(), 1U);
  EXPECT_DOUBLE_EQ(fire_times[0], 11.0);
}

TEST(Timer, StopCancels) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.restart(5.0);
  timer.stop();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DestructorCancelsPendingFiring) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer(sim, [&] { ++fired; });
    timer.restart(1.0);
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRestartItselfFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* self = nullptr;
  Timer timer(sim, [&] {
    if (++fired < 3) self->restart(1.0);
  });
  self = &timer;
  timer.restart(1.0);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

}  // namespace
