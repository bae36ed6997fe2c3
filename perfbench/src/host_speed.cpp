#include "host_speed.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHeapSize = 1 << 14;  // pending events
constexpr int kSteps = 150000;              // events per sample

struct Event {
  std::uint64_t time;
  std::uint32_t slot;
};

void* map_zeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

// Replaces the earliest event and restores the heap order.
void replace_top(Event* heap, Event e) {
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= kHeapSize) break;
    if (child + 1 < kHeapSize && heap[child + 1].time < heap[child].time) {
      ++child;
    }
    if (heap[child].time >= e.time) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = e;
}

// The reference process: answers every byte read from `in` with the
// duration (a double, seconds) of one run of the loop. Uses no heap
// allocation, so it is safe whatever the parent's threads held at fork.
[[noreturn]] void reference_process(int in, int out, std::size_t words) {
  auto* state = static_cast<std::uint64_t*>(map_zeroed(words * 8));
  auto* heap = static_cast<Event*>(map_zeroed(kHeapSize * sizeof(Event)));
  if (state == nullptr || heap == nullptr) _exit(1);
  for (std::size_t i = 0; i < words; ++i) state[i] = i;
  std::uint64_t rng = 7;
  // Equal start times form a valid heap.
  for (std::size_t i = 0; i < kHeapSize; ++i) {
    heap[i] = {0, static_cast<std::uint32_t>(splitmix64(&rng) % words)};
  }
  char cmd;
  while (read(in, &cmd, 1) == 1) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      const Event e = heap[0];
      state[e.slot] += e.time;
      const std::uint64_t r = splitmix64(&rng);
      replace_top(heap, {e.time + 1 + (r & 1023),
                         static_cast<std::uint32_t>((r >> 16) % words)});
    }
    const double dt = seconds_between(t0, Clock::now());
    if (write(out, &dt, sizeof dt) != sizeof dt) break;
  }
  _exit(0);
}

}  // namespace

HostSpeed::HostSpeed(std::size_t state_mib, double nominal_s)
    : nominal_s_(nominal_s) {
  // A write to a dead reference process then fails instead of killing
  // the benchmark.
  signal(SIGPIPE, SIG_IGN);
  int down[2], up[2];
  if (pipe2(down, O_CLOEXEC) != 0) return;
  if (pipe2(up, O_CLOEXEC) != 0) {
    close(down[0]);
    close(down[1]);
    return;
  }
  pid_ = fork();
  if (pid_ == 0) {
    // Keep only the two pipe ends: an inherited descriptor (the parent's
    // stdout, another pipe) would stay open as long as this process runs.
    for (int fd = 0; fd < 1024; ++fd) {
      if (fd != down[0] && fd != up[1]) close(fd);
    }
    reference_process(down[0], up[1], (state_mib << 20) / 8);
  }
  close(down[0]);
  close(up[1]);
  if (pid_ < 0) {
    close(down[1]);
    close(up[0]);
    return;
  }
  to_child_ = down[1];
  from_child_ = up[0];
}

HostSpeed::~HostSpeed() {
  if (pid_ <= 0) return;
  close(to_child_);  // the child reads end of file and exits
  close(from_child_);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

void HostSpeed::sample() {
  const char cmd = 's';
  if (!ok() || write(to_child_, &cmd, 1) != 1) {
    failed_ = true;
    return;
  }
  double dt = 0.0;
  auto* p = reinterpret_cast<char*>(&dt);
  std::size_t got = 0;
  while (got < sizeof dt) {
    const ssize_t n = read(from_child_, p + got, sizeof dt - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      failed_ = true;
      return;
    }
    got += static_cast<std::size_t>(n);
  }
  times_s_.push_back(dt);
}

double HostSpeed::factor() const {
  return times_s_.empty() ? 1.0 : nominal_s_ / median(times_s_);
}

}  // namespace perfbench
