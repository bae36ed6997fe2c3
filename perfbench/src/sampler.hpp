// SIGPROF stack sampler for the traced run's layer attribution.
//
// An ITIMER_PROF timer interrupts whichever thread is consuming CPU every
// `interval_us` of process CPU time; the handler stores the interrupted PC
// and a backtrace() of its callers into a preallocated buffer (no
// allocation, no locks). stop() writes the raw samples plus this binary's
// load range from /proc/self/maps; perfbench/run.py resolves the addresses
// offline with `nm -C` and charges each sample to a layer.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

class Sampler {
 public:
  /// Opens a sampling window. Only one window may be open at a time.
  static void start(int interval_us);

  /// Closes the window and writes its samples to `path`. Returns the number
  /// of samples written (0 also when the file cannot be written).
  static std::size_t stop(const std::string& path);
};

}  // namespace perfbench
