// util::FlatMap — the open-addressed map under every O(touched) per-node
// structure. These tests target the spots where linear probing with
// backward-shift deletion actually goes wrong: erases whose shift chain
// crosses the wrap boundary of the slot array, iteration-order stability
// across growth rehashes (the determinism contract), sustained
// insert/erase churn near the load-factor ceiling checked against a
// reference map, and a hit at the load ceiling, which must not rehash.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/flat_map.hpp"

namespace {

using Map = p2p::util::FlatMap<std::uint32_t, int, 0xFFFFFFFFu>;

/// Home slot of `key` in a table of `cap` slots — mirrors FlatMap's
/// Fibonacci hash so tests can construct colliding/wrapping layouts.
std::size_t home(std::uint32_t key, std::size_t cap) {
  const std::uint64_t h =
      static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> 32) & (cap - 1);
}

/// First `count` keys (ascending from 1) whose home slot in a `cap`-slot
/// table is exactly `slot`.
std::vector<std::uint32_t> keys_with_home(std::size_t slot, std::size_t cap,
                                          std::size_t count) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 1; keys.size() < count; ++k) {
    if (home(k, cap) == slot) keys.push_back(k);
  }
  return keys;
}

std::vector<std::pair<std::uint32_t, int>> entries_in_slot_order(
    const Map& map) {
  std::vector<std::pair<std::uint32_t, int>> out;
  map.for_each([&](std::uint32_t k, const int& v) { out.emplace_back(k, v); });
  return out;
}

TEST(FlatMap, BackwardShiftEraseAcrossWrapBoundary) {
  // Initial capacity is 16. Three keys homed at the LAST slot (15) probe
  // to slots 15, 0, 1 — the collision chain wraps. Erasing the head at
  // slot 15 must backward-shift the wrapped tail into place; the naive
  // shift condition (without the modular `(j - h) & mask` arithmetic)
  // breaks exactly here and strands keys unreachable.
  const auto keys = keys_with_home(15, 16, 3);
  Map map;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map.get_or_insert(keys[i]) = static_cast<int>(i + 100);
  }
  ASSERT_EQ(map.size(), 3U);

  EXPECT_TRUE(map.erase(keys[0]));
  EXPECT_EQ(map.find(keys[0]), nullptr);
  ASSERT_NE(map.find(keys[1]), nullptr) << "wrapped key stranded by erase";
  EXPECT_EQ(*map.find(keys[1]), 101);
  ASSERT_NE(map.find(keys[2]), nullptr) << "wrapped key stranded by erase";
  EXPECT_EQ(*map.find(keys[2]), 102);

  // Erase from the middle of the wrapped chain too.
  EXPECT_TRUE(map.erase(keys[1]));
  ASSERT_NE(map.find(keys[2]), nullptr);
  EXPECT_EQ(*map.find(keys[2]), 102);
  EXPECT_EQ(map.size(), 1U);
}

TEST(FlatMap, EraseDoesNotStrandKeyHomedJustBeforeWrap) {
  // A key homed at slot 15 displaced past the boundary (to slot 0 or 1)
  // must NOT be shifted into a hole opened at slot 0 or 1 by a key homed
  // there — and conversely a key homed at 0 sitting at 1 must move back.
  // Exercise both directions of the wrap comparison.
  const auto tail = keys_with_home(15, 16, 2);  // occupy 15, 0
  const auto front = keys_with_home(0, 16, 1);  // displaced to 1
  Map map;
  map.get_or_insert(tail[0]) = 1;
  map.get_or_insert(tail[1]) = 2;
  map.get_or_insert(front[0]) = 3;
  ASSERT_EQ(map.size(), 3U);

  // Hole at slot 0 (tail[1]): front[0] (home 0, at slot 1) must shift in;
  // afterwards every surviving key is still reachable.
  EXPECT_TRUE(map.erase(tail[1]));
  ASSERT_NE(map.find(tail[0]), nullptr);
  EXPECT_EQ(*map.find(tail[0]), 1);
  ASSERT_NE(map.find(front[0]), nullptr);
  EXPECT_EQ(*map.find(front[0]), 3);
}

TEST(FlatMap, GrowthRehashKeepsIterationOrderDeterministic) {
  // Iteration (slot) order must be a pure function of the insert/erase
  // history — bit-identical across runs, platforms, and replays. Build
  // the same history twice, crossing the 16→32 and 32→64 growth
  // thresholds, and demand identical for_each sequences.
  const auto build = [] {
    Map map;
    for (std::uint32_t k = 1; k <= 40; ++k) {
      map.get_or_insert(k * 7919u) = static_cast<int>(k);
    }
    for (std::uint32_t k = 1; k <= 40; k += 3) {
      map.erase(k * 7919u);
    }
    for (std::uint32_t k = 100; k <= 110; ++k) {
      map.get_or_insert(k * 7919u) = static_cast<int>(k);
    }
    return map;
  };
  const Map a = build();
  const Map b = build();
  const auto ea = entries_in_slot_order(a);
  const auto eb = entries_in_slot_order(b);
  ASSERT_EQ(ea.size(), a.size());
  EXPECT_EQ(ea, eb) << "slot layout diverged for identical histories";

  // And the layout survives value mutation (values must not affect order).
  Map c = build();
  c.for_each([](std::uint32_t, int& v) { v += 1000; });
  const auto ec = entries_in_slot_order(c);
  for (std::size_t i = 0; i < ec.size(); ++i) {
    EXPECT_EQ(ec[i].first, ea[i].first);
    EXPECT_EQ(ec[i].second, ea[i].second + 1000);
  }
}

TEST(FlatMap, ChurnNearLoadCeilingMatchesReferenceMap) {
  // Sustained insert/erase/find churn with the map sitting near its 5/8
  // growth threshold, validated op-for-op against std::map. The key
  // universe (192 keys) is small enough that erase chains get long and
  // collide often — the regime where backward-shift bugs surface.
  Map map;
  std::map<std::uint32_t, int> ref;
  std::uint64_t rng = 0x243F6A8885A308D3ULL;  // fixed seed: deterministic
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(rng >> 33);
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint32_t key = 1 + next() % 192;
    switch (next() % 3) {
      case 0: {  // insert/overwrite
        const int value = static_cast<int>(next());
        map.get_or_insert(key) = value;
        ref[key] = value;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(map.erase(key), ref.erase(key) == 1) << "op " << op;
        break;
      }
      default: {  // find
        const int* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
  }

  // Full-content check: every entry present, none stranded or duplicated.
  std::map<std::uint32_t, int> seen;
  map.for_each([&](std::uint32_t k, const int& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key " << k;
  });
  EXPECT_EQ(seen, ref);
}

TEST(FlatMap, ClearRetainsCapacityAndMapStaysUsable) {
  Map map;
  for (std::uint32_t k = 1; k <= 50; ++k) map.get_or_insert(k) = 1;
  const std::size_t bytes = map.memory_bytes();
  map.clear();
  EXPECT_EQ(map.size(), 0U);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.memory_bytes(), bytes);  // slots retained
  for (std::uint32_t k = 1; k <= 50; ++k) EXPECT_EQ(map.find(k), nullptr);
  map.get_or_insert(7) = 42;
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 42);
}

TEST(FlatMap, HitAtLoadThresholdDoesNotGrow) {
  Map map;
  // 10 keys in 16 slots: the next insert crosses the 5/8 load ceiling.
  for (std::uint32_t k = 1; k <= 10; ++k) map.get_or_insert(k) = 1;
  const std::size_t bytes = map.memory_bytes();
  int* held = map.find(3);
  ASSERT_NE(held, nullptr);
  bool inserted = true;
  map.get_or_insert(3, &inserted) = 5;  // find-or-update of a present key
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.memory_bytes(), bytes);  // no rehash on a hit
  EXPECT_EQ(map.find(3), held);          // held value pointer still valid
  EXPECT_EQ(*map.find(3), 5);
  map.get_or_insert(11);  // a real insert does grow
  EXPECT_GT(map.memory_bytes(), bytes);
}

}  // namespace
