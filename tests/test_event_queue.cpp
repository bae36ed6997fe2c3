// EventQueue: ordering, FIFO tie-breaking, cancellation, and a randomized
// model check against a reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace {

using p2p::sim::EventId;
using p2p::sim::EventQueue;
using p2p::sim::kTimeNever;

TEST(EventQueue, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0U);
  EXPECT_EQ(queue.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInPushOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  EventQueue queue;
  const EventId early = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
  queue.cancel(early);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
}

TEST(EventQueue, CancelReturnsTrueOnlyForLiveEvents) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // already cancelled
  EXPECT_FALSE(queue.cancel(p2p::sim::kInvalidEventId));
  EXPECT_FALSE(queue.cancel(99999));
}

TEST(EventQueue, CancelledEventNeverPops) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.push(1.0, [&] { fired = true; });
  queue.push(2.0, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1U);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.pop();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, IdsAreUniqueAndNonZero) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(queue.push(1.0, [] {}));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(ids.front(), p2p::sim::kInvalidEventId);
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2U);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1U);
  queue.pop();
  EXPECT_EQ(queue.size(), 0U);
}

TEST(EventQueue, TotalScheduledIsMonotonic) {
  EventQueue queue;
  EXPECT_EQ(queue.total_scheduled(), 0U);
  queue.push(1.0, [] {});
  const EventId b = queue.push(1.0, [] {});
  queue.cancel(b);
  EXPECT_EQ(queue.total_scheduled(), 2U);
}

// --- Targeted lock-in tests for cancel/pop semantics (captured before the
// --- tombstone/slot-generation rewrite; the rewrite must keep them green).

TEST(EventQueue, CancelThenPopSkipsToNextLiveEvent) {
  EventQueue queue;
  std::vector<int> order;
  const EventId head = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  queue.push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  auto popped = queue.pop();
  EXPECT_DOUBLE_EQ(popped.time, 2.0);
  popped.fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(queue.size(), 1U);
}

TEST(EventQueue, CancelAlreadyFiredIdNeverHitsALaterEvent) {
  EventQueue queue;
  const EventId fired = queue.push(1.0, [] {});
  queue.pop();
  // A new event scheduled after the fire must be untouchable through the
  // stale handle, even if the queue recycles internal storage.
  bool second_fired = false;
  queue.push(2.0, [&] { second_fired = true; });
  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_EQ(queue.size(), 1U);
  queue.pop().fn();
  EXPECT_TRUE(second_fired);
}

TEST(EventQueue, InterleavedFifoTiesSurviveCancellation) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(queue.push(5.0, [&order, i] { order.push_back(i); }));
  }
  queue.cancel(ids[1]);
  queue.cancel(ids[4]);
  // New pushes at the same timestamp go to the back of the FIFO tie.
  queue.push(5.0, [&order] { order.push_back(6); });
  queue.push(5.0, [&order] { order.push_back(7); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 7}));
}

TEST(EventQueue, PeakAccountingCountsOnlyLiveEvents) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  queue.push(3.0, [] {});
  EXPECT_EQ(queue.peak_size(), 3U);
  queue.cancel(a);
  // Cancel does not retroactively lower the high-water mark...
  EXPECT_EQ(queue.peak_size(), 3U);
  // ...and a push replacing a cancelled event does not raise it either.
  queue.push(4.0, [] {});
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.peak_size(), 3U);
  queue.push(5.0, [] {});
  EXPECT_EQ(queue.peak_size(), 4U);
}

TEST(EventQueue, PopAfterMassCancelFindsTheSurvivor) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.push(static_cast<double>(i), [] {}));
  }
  bool survivor_fired = false;
  const EventId survivor = queue.push(50.5, [&] { survivor_fired = true; });
  for (const EventId id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1U);
  EXPECT_DOUBLE_EQ(queue.next_time(), 50.5);
  auto popped = queue.pop();
  EXPECT_EQ(popped.id, survivor);
  popped.fn();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

// Reference model of the pending set: live events keyed by (time, push
// order). Ties at equal time break by push order — the FIFO contract —
// NOT by id value (ids are opaque handles and may be recycled internally).
class ReferenceQueue {
 public:
  using Key = std::pair<double, std::uint64_t>;

  Key push(double t, EventId id) {
    const Key key{t, pushes_++};
    live_.emplace(key, id);
    return key;
  }
  /// True iff the event was still pending (not fired, not cancelled).
  bool cancel(const Key& key) { return live_.erase(key) == 1; }
  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }
  double next_time() const { return live_.begin()->first.first; }
  /// Remove and return the earliest event as (time, id).
  std::pair<double, EventId> pop() {
    const auto it = live_.begin();
    const std::pair<double, EventId> front{it->first.first, it->second};
    live_.erase(it);
    return front;
  }

 private:
  std::map<Key, EventId> live_;
  std::uint64_t pushes_ = 0;
};

// Pop the queue and the model together and require the same event.
void expect_same_pop(EventQueue& queue, ReferenceQueue& model,
                     std::uint64_t pop_index) {
  ASSERT_FALSE(queue.empty());
  const auto popped = queue.pop();
  const auto want = model.pop();
  ASSERT_EQ(popped.time, want.first) << "pop " << pop_index;
  ASSERT_EQ(popped.id, want.second) << "pop " << pop_index;
}

// Property: under random interleavings of push/cancel/pop, the queue
// behaves exactly like the sorted reference model.
class EventQueueModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelTest, MatchesReferenceModel) {
  p2p::sim::RngStream rng(GetParam());
  EventQueue queue;
  ReferenceQueue model;
  std::vector<std::pair<EventId, ReferenceQueue::Key>> handles;

  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55) {
      const double t = rng.uniform(0.0, 100.0);
      const EventId id = queue.push(t, [] {});
      handles.emplace_back(id, model.push(t, id));
    } else if (roll < 0.75 && !handles.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      EXPECT_EQ(queue.cancel(handles[pick].first),
                model.cancel(handles[pick].second));
    } else if (!model.empty()) {
      const auto popped = queue.pop();
      const auto want = model.pop();
      EXPECT_DOUBLE_EQ(popped.time, want.first);
      EXPECT_EQ(popped.id, want.second);
    }
    ASSERT_EQ(queue.size(), model.size());
    if (!model.empty()) {
      EXPECT_DOUBLE_EQ(queue.next_time(), model.next_time());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1234));

// --- Tiered-structure stress: tens of thousands of randomized ops deep
// --- enough to drive spills and re-buckets, checked element for element
// --- against the reference model — including FIFO among equal-time ties
// --- and cancels of already-fired handles.

TEST(EventQueueLadder, PopSequenceMatchesReferenceModel) {
  // Named stream so the op sequence is pinned independently of any other
  // RNG consumer (docs/determinism.md).
  p2p::sim::RngManager rngs(20260809);
  p2p::sim::RngStream rng = rngs.stream("queue-differential");
  EventQueue queue;
  ReferenceQueue model;
  // Every handle ever issued: cancel picks may hit fired events, which
  // must report false exactly when the model no longer holds them.
  std::vector<std::pair<EventId, ReferenceQueue::Key>> handles;

  std::uint64_t pops = 0, ties = 0;
  double recent_time = 1.0;
  for (int step = 0; step < 50000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.50) {
      // Mostly fresh times; 15% reuse the last pushed time to force
      // same-instant FIFO ties through every tier.
      double t = rng.uniform(0.0, 10000.0);
      if (rng.uniform01() < 0.15) {
        t = recent_time;
        ++ties;
      }
      recent_time = t;
      const EventId id = queue.push(t, [] {});
      handles.emplace_back(id, model.push(t, id));
    } else if (roll < 0.72 && !handles.empty()) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      EXPECT_EQ(queue.cancel(handles[pick].first),
                model.cancel(handles[pick].second));
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!model.empty()) {
      expect_same_pop(queue, model, pops++);
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.next_time(), model.empty() ? kTimeNever
                                               : model.next_time());
  }
  while (!model.empty()) expect_same_pop(queue, model, pops++);
  EXPECT_TRUE(queue.empty());
  EXPECT_GT(pops, 10000U);
  EXPECT_GT(ties, 1000U);
  // The workload is deep enough to exercise the rung machinery, not just
  // the bottom tier.
  EXPECT_GT(queue.stats().ladder_spills, 0U);
  EXPECT_EQ(queue.stats().pops, pops);
}

// A monotone-time workload shaped like the simulator's (pop one, push a
// few slightly ahead) keeps the queue in lockstep with the model as well.
TEST(EventQueueLadder, SteadyStateSimShapedWorkloadMatchesReferenceModel) {
  p2p::sim::RngManager rngs(7);
  p2p::sim::RngStream rng = rngs.stream("queue-steady");
  EventQueue queue;
  ReferenceQueue model;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 10.0);
    model.push(t, queue.push(t, [] {}));
  }
  for (std::uint64_t i = 0; i < 30000; ++i) {
    const double now = model.next_time();
    expect_same_pop(queue, model, i);
    const int fanout = static_cast<int>(rng.uniform_int(0, 2));
    for (int f = 0; f < fanout; ++f) {
      // Mix of short frame-like delays and long timer-like delays.
      const double delay = rng.uniform01() < 0.8
                               ? rng.uniform(1e-4, 1e-3)
                               : rng.uniform(1.0, 30.0);
      model.push(now + delay, queue.push(now + delay, [] {}));
    }
    ASSERT_EQ(queue.size(), model.size());
  }
  EXPECT_GT(queue.stats().ladder_spills, 0U);
}

// --- Memory bound: every buffer the queue keeps — tiers, rungs, and the
// --- recycled-bucket pool — stays proportional to the most entries it
// --- ever stored. Deep bursts (some at a single instant, which cannot be
// --- re-bucketed and land in the bottom tier whole) followed by drains
// --- must not leave each recycled bucket carrying a burst's capacity.

TEST(EventQueueLadder, MemoryStaysProportionalToPeakStoredEntries) {
  p2p::sim::RngManager rngs(20261017);
  p2p::sim::RngStream rng = rngs.stream("queue-memory");
  EventQueue queue;
  double now = 0.0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    // Burst: a spread of future events plus a block of same-instant ties,
    // with a fraction cancelled before they surface.
    std::vector<EventId> ids;
    const auto burst = static_cast<std::size_t>(rng.uniform_int(2000, 6000));
    for (std::size_t i = 0; i < burst; ++i) {
      ids.push_back(queue.push(now + rng.uniform(0.0, 50.0), [] {}));
    }
    const double instant = now + rng.uniform(0.0, 50.0);
    const auto ties = static_cast<std::size_t>(rng.uniform_int(500, 3000));
    for (std::size_t i = 0; i < ties; ++i) {
      ids.push_back(queue.push(instant, [] {}));
    }
    for (const EventId id : ids) {
      if (rng.uniform01() < 0.2) queue.cancel(id);
    }
    // Drain, pushing near-future follow-ups the way the simulator does,
    // until only a shallow standing set remains.
    while (queue.size() > 64) {
      now = queue.pop().time;
      if (rng.uniform01() < 0.3) {
        queue.push(now + rng.uniform(1e-4, 1e-2), [] {});
      }
    }
  }
  EXPECT_GE(queue.stats().ladder_spills, 40U);
  EXPECT_GT(queue.stats().ladder_rebuckets, 0U);
  // Slot storage (generation, inline closure, free-list index) scales
  // with the live peak, entry storage with the stored peak; the 2x covers
  // vector doubling. A pool that bounds how many vectors it recycles but
  // not their capacity fails this: each cycle leaves another burst-sized
  // vector in it.
  const std::size_t slot_bytes =
      sizeof(std::uint32_t) + sizeof(p2p::sim::EventFn) + sizeof(std::uint32_t);
  const std::size_t entry_bytes = 24;  // the queue's {time, seq, slot, gen}
  const std::size_t bound = 2 * queue.peak_size() * slot_bytes +
                            4 * queue.peak_raw_size() * entry_bytes + 65536;
  EXPECT_LE(queue.memory_bytes(), bound)
      << "peak_raw_size " << queue.peak_raw_size();
}

// --- Tombstone compaction: a cancel-heavy run must not carry an
// --- unbounded dead fraction until tombstones surface at the front — the
// --- threshold sweep reclaims them eagerly.

TEST(EventQueueCompaction, MassCancelTriggersCompaction) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(queue.push(static_cast<double>(i % 97), [] {}));
  }
  EXPECT_EQ(queue.peak_raw_size(), 4096U);
  // Cancel everything except one survivor in the middle.
  bool survivor_fired = false;
  const EventId survivor = queue.push(42.5, [&] { survivor_fired = true; });
  for (const EventId id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1U);
  // The sweep fired well before the drain (dead > live threshold) and
  // reclaimed the tombstones without waiting for pops.
  EXPECT_GT(queue.stats().compactions, 0U);
  EXPECT_GT(queue.stats().tombstones_purged, 4000U);
  auto popped = queue.pop();
  EXPECT_EQ(popped.id, survivor);
  popped.fn();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCompaction, RawPeakBoundsLivePeak) {
  EventQueue queue;
  p2p::sim::RngStream rng(99);
  std::vector<EventId> ids;
  for (int step = 0; step < 20000; ++step) {
    if (ids.size() < 64 || rng.uniform01() < 0.5) {
      ids.push_back(queue.push(rng.uniform(0.0, 100.0), [] {}));
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      queue.cancel(ids[pick]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_GE(queue.peak_raw_size(), queue.peak_size());
  // Compaction keeps raw storage within a small multiple of live: dead
  // can never exceed max(live, threshold) right after a sweep, so the raw
  // peak is bounded by twice the live peak plus the trigger slack.
  EXPECT_LE(queue.peak_raw_size(), 2 * queue.peak_size() + 128);
}

// --- Full-scenario regression: a shrunk megascale-shaped run (paper
// --- density, AODV, staggered joins — the `megascale --smoke` recipe at
// --- a tier-1-friendly population) must report the identical world the
// --- 4-ary heap produced before the ladder became the only queue. Pop
// --- order is the strict (time, seq) order, so the container can never
// --- move these counters; bench_guard pins the same for megascale.smoke.

TEST(EventQueueLadder, MegascaleShapedScenarioMatchesPinnedCounters) {
  p2p::scenario::Parameters params;
  params.algorithm = p2p::core::AlgorithmKind::kRegular;
  params.num_nodes = 2000;
  const double side = 100.0 * std::sqrt(2000.0 / 50.0);
  params.area_width = side;
  params.area_height = side;
  params.duration_s = 30.0;
  params.seed = 7;
  params.routing_protocol = p2p::scenario::RoutingProtocol::kAodv;
  params.join_stagger_s = 3.0;
  params.overlay_sample_interval_s = 0.0;

  p2p::scenario::SimulationRun run(params);
  const p2p::scenario::RunResult r = run.run();

  ASSERT_GT(r.queue_ladder_spills, 0U);
  EXPECT_EQ(r.events_processed, 35504U);
  EXPECT_EQ(r.frames_transmitted, 31327U);
  EXPECT_EQ(r.frames_delivered, 45406U);
  EXPECT_EQ(r.frames_lost, 0U);
  EXPECT_EQ(r.peak_queue_depth, 5406U);
  EXPECT_EQ(r.queue_pushes, 43081U);
  EXPECT_EQ(r.queue_pops, 35504U);
  EXPECT_EQ(r.energy_consumed_j, 4.974542000000004);
  EXPECT_EQ(r.routing_control_messages, 7898U);
  EXPECT_EQ(r.connections_established, 2267U);
  EXPECT_EQ(r.connections_closed, 1U);
}

}  // namespace
