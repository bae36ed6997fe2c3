// util::FlatMap — the open-addressed map under every O(touched) per-node
// structure. These tests target the spots where linear probing with
// backward-shift deletion actually goes wrong: erases whose shift chain
// crosses the wrap boundary of the slot array, iteration-order stability
// across growth rehashes (the determinism contract), sustained
// insert/erase churn near the load-factor ceiling checked against a
// reference map, one-pass erase_if purges over wrapping probe runs, and a
// hit at the load ceiling, which must not rehash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
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

TEST(FlatMap, EraseIfMatchesReferenceMap) {
  // Seeded insert / erase_if / find script against std::map. Half the key
  // universe is homed at the last two slots of a 64-slot table, hence also
  // at the last slots of the 16- and 32-slot tables it passes through, so
  // their probe runs wrap past the last slot. That is where a one-pass
  // purge goes wrong: the backward shift refills the slot just erased
  // (skipping it strands a doomed key) and can move a wrapped key back
  // behind the cursor.
  std::vector<std::uint32_t> universe = keys_with_home(63, 64, 8);
  for (const std::uint32_t k : keys_with_home(62, 64, 4)) {
    universe.push_back(k);
  }
  for (std::uint32_t k = 1; universe.size() < 24; ++k) {
    if (std::find(universe.begin(), universe.end(), k) == universe.end()) {
      universe.push_back(k);
    }
  }

  std::uint64_t rng = 0x13198A2E03707344ULL;  // fixed seed: deterministic
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  Map map;
  std::map<std::uint32_t, int> ref;
  const auto expect_same = [&](int step) {
    std::string why;
    ASSERT_TRUE(map.validate(&why)) << "step " << step << ": " << why;
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    for (const std::uint32_t k : universe) {
      const int* found = map.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second) << "step " << step;
      }
    }
  };

  // Tables never shrink, so each round starts a fresh one and caps its
  // size: at most 10 entries stay in 16 slots, 20 in 32, 24 reach 64.
  const std::size_t max_sizes[] = {10, 20, 24};
  int step = 0;
  for (int round = 0; round < 12; ++round) {
    map = Map{};
    ref.clear();
    const std::size_t max_size = max_sizes[round % 3];
    for (int i = 0; i < 250; ++i, ++step) {
      const std::size_t target = 3 + next() % (max_size - 2);
      while (ref.size() < target) {
        const std::uint32_t key = universe[next() % universe.size()];
        const int value = static_cast<int>(next() % 8);
        map.get_or_insert(key) = value;
        ref[key] = value;
      }
      const int doomed = static_cast<int>(next() % 8);
      map.erase_if(
          [doomed](std::uint32_t, const int& v) { return v <= doomed; });
      std::erase_if(
          ref, [doomed](const auto& kv) { return kv.second <= doomed; });
      expect_same(step);
    }
  }

  // Erase-none leaves every entry; erase-all empties the table in place.
  for (std::size_t i = 0; i < 12; ++i) {
    map.get_or_insert(universe[i]) = 1;
    ref[universe[i]] = 1;
  }
  map.erase_if([](std::uint32_t, const int&) { return false; });
  expect_same(-1);
  const std::size_t bytes = map.memory_bytes();
  map.erase_if([](std::uint32_t, const int&) { return true; });
  ref.clear();
  expect_same(-2);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.memory_bytes(), bytes);  // slots retained
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
