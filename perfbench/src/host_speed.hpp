// Host speed calibration for the simulation workloads.
//
// A shared host runs this benchmark at a speed that drifts in phases lasting
// minutes: other tenants' load slows the memory system, and a simulation
// with a large working set slows by up to 1.8x, a small one less. HostSpeed
// times a fixed reference loop shaped like a discrete-event simulation — a
// binary-heap event queue whose events update random words of a state array
// sized per workload; no repository code — at points interleaved with the
// measured work. factor() is the loop's nominal time
// over its median measured time in this run: multiplying a measured wall
// time by it gives the time the work would have taken at the nominal host
// speed. A change to the program moves the calibrated time; a host phase
// moves the reference loop and the work alike and largely cancels out.
//
// The loop runs in a child process forked by the constructor, while this
// process waits, so its state array never counts toward this process's
// peak RSS.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Forks the reference process with a state array of `state_mib` MiB;
  /// `nominal_s` is the loop's median time on an idle host.
  HostSpeed(std::size_t state_mib, double nominal_s);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times one run of the reference loop.
  void sample();

  /// Every sample so far was taken.
  bool ok() const noexcept { return pid_ > 0 && !failed_; }

  /// Nominal / median measured loop time; 1 before any sample.
  double factor() const;

  std::size_t samples() const noexcept { return times_s_.size(); }

 private:
  double nominal_s_;
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  bool failed_ = false;
  std::vector<double> times_s_;
};

}  // namespace perfbench
