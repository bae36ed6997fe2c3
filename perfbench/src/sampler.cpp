#include "sampler.hpp"

#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 48;
constexpr std::size_t kMaxSamples = std::size_t{1} << 16;

// Written only by the signal handler (slot claimed by fetch_add), read by
// stop() after the timer is off and no handler is in flight.
std::unique_ptr<void*[]> g_frames;
std::unique_ptr<int[]> g_depth;
std::unique_ptr<void*[]> g_leaf;
std::atomic<std::size_t> g_next{0};
std::atomic<int> g_in_handler{0};
std::atomic<bool> g_enabled{false};

void* interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acq_rel);
  if (g_enabled.load(std::memory_order_acquire)) {
    const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples) {
      g_leaf[i] = interrupted_pc(context);
      g_depth[i] = backtrace(&g_frames[i * kMaxDepth], kMaxDepth);
    }
  }
  g_in_handler.fetch_sub(1, std::memory_order_acq_rel);
  errno = saved_errno;
}

void set_timer(int interval_us) {
  itimerval tv{};
  tv.it_interval.tv_sec = interval_us / 1000000;
  tv.it_interval.tv_usec = interval_us % 1000000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

struct ExeRange {
  std::string path;
  std::uintptr_t start = std::numeric_limits<std::uintptr_t>::max();
  std::uintptr_t end = 0;
  std::uintptr_t base = 0;  // start of the offset-0 mapping
};

ExeRange exe_range() {
  ExeRange r;
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return r;
  r.path.assign(buf, static_cast<std::size_t>(n));
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream is(line);
    std::string range, perms, offset, dev, inode, path;
    is >> range >> perms >> offset >> dev >> inode >> path;
    if (path != r.path) continue;
    const auto dash = range.find('-');
    const std::uintptr_t lo = std::stoull(range.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (lo < r.start) r.start = lo;
    if (hi > r.end) r.end = hi;
    if (std::stoull(offset, nullptr, 16) == 0) r.base = lo;
  }
  return r;
}

}  // namespace

void Sampler::start(int interval_us) {
  if (!g_frames) {
    g_frames = std::make_unique<void*[]>(kMaxSamples * kMaxDepth);
    g_depth = std::make_unique<int[]>(kMaxSamples);
    g_leaf = std::make_unique<void*[]>(kMaxSamples);
    // The first backtrace() loads the unwinder; do it outside the handler.
    void* warm[4];
    backtrace(warm, 4);
  }
  g_next.store(0, std::memory_order_relaxed);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  g_enabled.store(true, std::memory_order_release);
  set_timer(interval_us);
}

std::size_t Sampler::stop(const std::string& path) {
  set_timer(0);
  g_enabled.store(false, std::memory_order_release);
  while (g_in_handler.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  const std::size_t taken = g_next.load(std::memory_order_relaxed);
  const std::size_t n = taken < kMaxSamples ? taken : kMaxSamples;
  const ExeRange exe = exe_range();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "exe %s\nrange %zx %zx %zx\nsamples %zu dropped %zu\n",
               exe.path.c_str(), static_cast<std::size_t>(exe.start),
               static_cast<std::size_t>(exe.end),
               static_cast<std::size_t>(exe.base), n, taken - n);
  for (std::size_t i = 0; i < n; ++i) {
    // backtrace() starts in this handler and the signal trampoline; the
    // interrupted frame follows. Keep the exact interrupted PC as the leaf,
    // then the return addresses of its callers.
    void* const* frames = &g_frames[i * kMaxDepth];
    const int depth = g_depth[i];
    int first_caller = depth;
    for (int k = 0; k < depth; ++k) {
      if (frames[k] == g_leaf[i]) {
        first_caller = k + 1;
        break;
      }
    }
    std::fprintf(f, "%zx", reinterpret_cast<std::size_t>(g_leaf[i]));
    for (int k = first_caller; k < depth; ++k) {
      std::fprintf(f, " %zx", reinterpret_cast<std::size_t>(frames[k]));
    }
    std::fputc('\n', f);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? n : 0;
}

}  // namespace perfbench
