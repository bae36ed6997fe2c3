// Process-memory probe for the mega-scale benches.
//
// peak_rss_bytes(): OS-reported high-water mark of resident memory for the
// whole process (getrusage). This is the number the megascale bench
// records — it captures everything, allocator slack included, and is what
// actually limits how many nodes fit on a machine. It returns 0 on
// platforms where the probe is unavailable rather than failing — callers
// treat 0 as "not measured".
#pragma once

#include <cstddef>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace p2p::util {

/// Peak resident set size of this process, in bytes (0 if unavailable).
inline std::size_t peak_rss_bytes() noexcept {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace p2p::util
