// Simulator: time advance, scheduling semantics, stop, cancellation from
// inside handlers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace {

using p2p::sim::kTimeNever;
using p2p::sim::Simulator;

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

}  // namespace
