// Fixed-seed counters of every simulated world the benchmark runs. Each
// world is deterministic (seed 7), so these must repeat exactly on every
// pass; a mismatch counts as a failed operation. Update them only together
// with a change that is meant to alter the simulated behaviour.
#pragma once

#include <cstdint>
#include <string_view>

namespace perfbench {

struct PinnedCounters {
  std::string_view world;
  std::uint64_t events;
  std::uint64_t frames_delivered;
  std::uint64_t queries;
  std::uint64_t answers;
  std::uint64_t peak_queue;
};

inline constexpr PinnedCounters kPinnedCounters[] = {
    {"basic_500", 6875550, 10235819, 10689, 1602, 2054},
    {"regular_500", 1878261, 3607301, 10689, 650, 1745},
    {"random_500", 1677898, 3311336, 10657, 619, 1866},
    {"hybrid_500", 2053645, 4468468, 10689, 813, 1722},
    {"regular_20k", 3350264, 4217180, 15636, 2249, 70569},
};

}  // namespace perfbench
