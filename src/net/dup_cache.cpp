#include "net/dup_cache.hpp"

namespace p2p::net {

bool DupCache::insert(NodeId origin, std::uint64_t id, sim::SimTime now) {
  if (now >= purge_due_) {
    seen_.erase_if([&](std::uint64_t, sim::SimTime t) {
      return !(t + ttl_ > now);
    });
    // Fixed-cadence epochs: the next purge is a full TTL away, bounding
    // the amortized purge cost per insert at O(1). (Recomputing the
    // deadline as oldest-survivor + ttl looks tighter but degenerates
    // under a steady insert stream: the oldest survivor is always about
    // to expire, so every insert pays a full O(capacity) pass — an 8x
    // wall-time hit on the flood storms.)
    purge_due_ = now + ttl_;
  }
  bool inserted = false;
  sim::SimTime& seen = seen_.get_or_insert(key(origin, id), &inserted);
  // An expired resident (this epoch's purge has not reached it yet) is a
  // fresh sighting, exactly as if it had been evicted and re-inserted.
  if (!inserted && seen + ttl_ > now) return false;  // time untouched
  seen = now;
  if (purge_due_ == kNeverDue) purge_due_ = now + ttl_;
  return true;
}

bool DupCache::contains(NodeId origin, std::uint64_t id,
                        sim::SimTime now) const {
  // Expiry is lazy (insert-driven), so an entry may still be resident
  // after its TTL; check the recorded time instead of mere presence.
  const sim::SimTime* seen = seen_.find(key(origin, id));
  return seen != nullptr && *seen + ttl_ > now;
}

void DupCache::clear() noexcept {
  seen_.clear();
  purge_due_ = kNeverDue;
}

bool DupCache::validate(sim::SimTime now, std::string* why) const {
  if (!seen_.validate(why)) return false;
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  bool future = false;
  seen_.for_each([&](std::uint64_t, sim::SimTime t) { future |= t > now; });
  if (future) return fail("entry recorded in the future");
  // The epoch deadline is always set while entries are resident, and was
  // stamped `then + ttl` at some instant `then <= now`.
  if (!seen_.empty() && (purge_due_ == kNeverDue || purge_due_ > now + ttl_)) {
    return fail("purge deadline unset or more than one TTL out");
  }
  return true;
}

}  // namespace p2p::net
