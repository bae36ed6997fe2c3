#include "sim/simulator.hpp"

#include "util/assert.hpp"

namespace p2p::sim {

EventId Simulator::at(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  return queue_.push(when, std::move(fn));
}

EventId Simulator::after(SimTime delay, EventFn fn) {
  P2P_DASSERT(delay >= 0.0);
  return queue_.push(now_ + delay, std::move(fn));
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t processed = 0;
  while (true) {
    const SimTime t = queue_.next_time();
    if (t == kTimeNever || t > until) break;
    auto ev = queue_.pop();
    P2P_DASSERT(ev.time >= now_);
    now_ = ev.time;
    ev.fn();
    ++processed;
    ++events_processed_;
  }
  if (now_ < until && until != kTimeNever) now_ = until;
  return processed;
}

std::uint64_t Simulator::run_window(SimTime end) {
  std::uint64_t processed = 0;
  while (true) {
    const SimTime t = queue_.next_time();
    if (t == kTimeNever || t >= end) break;
    auto ev = queue_.pop();
    P2P_DASSERT(ev.time >= now_);
    now_ = ev.time;
    ev.fn();
    ++processed;
    ++events_processed_;
  }
  return processed;
}

}  // namespace p2p::sim
