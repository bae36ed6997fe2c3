// Duplicate-suppression cache for flooded messages.
//
// This is the "controlled broadcast" mechanism the paper added to ns-2's
// AODV: "each node has a cache to keep track of the broadcast messages
// received. This mechanism avoids forwarding the same message several
// times." Keyed by (origin, broadcast id); entries expire so the cache
// stays bounded on long runs.
//
// Representation: one util::FlatMap from the packed (origin, id) key to
// the first sighting's time — the insert that every received flood frame
// performs is one hash and a short probe, with no per-entry heap nodes.
// Expiry is epoch-based: the first insert at or past `purge_due_` erases
// the expired entries in one in-place pass (FlatMap::erase_if) and pushes
// the deadline a full TTL out, so the purge cost amortizes to O(1) per
// insert regardless of insert rate. Entries that expire mid-epoch stay
// resident until the next purge but are invisible — insert() and
// contains() compare the recorded time against the TTL themselves — so
// correctness never depends on purge timing.
#pragma once

#include <cstdint>
#include <string>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace p2p::net {

class DupCache {
 public:
  /// `ttl` — how long a (origin,id) pair is remembered. Must exceed the
  /// maximum time a flooded message can still be in flight (hops * per-hop
  /// delay); the default is generous for the paper's 6-hop floods.
  explicit DupCache(sim::SimTime ttl = 30.0) noexcept : ttl_(ttl) {}

  /// Record (origin, id) at time `now`. Returns true if this is the first
  /// sighting (caller should process/forward), false if it is a duplicate.
  /// A duplicate does NOT refresh the original sighting's time.
  bool insert(NodeId origin, std::uint64_t id, sim::SimTime now);

  /// Whether (origin, id) was inserted within the last `ttl` before `now`.
  /// Entries past their TTL are reported absent even if the epoch purge
  /// has not physically removed them yet — so ID reuse after the TTL is
  /// never suppressed by a stale sighting.
  bool contains(NodeId origin, std::uint64_t id, sim::SimTime now) const;

  /// Resident entry count (purges run at insert time, so this includes
  /// entries that expired since the last insert).
  std::size_t size() const noexcept { return seen_.size(); }

  /// Forget everything (node crash/rebirth: a reborn node must not carry
  /// sightings from its previous life). Capacity is retained.
  void clear() noexcept;

  /// Internal-consistency check for the invariant sweep: the table's
  /// layout holds (FlatMap::validate), no recorded sighting lies in the
  /// future, and the purge deadline never trails the oldest entry's
  /// expiry. Fills `why` (if non-null) on failure.
  bool validate(sim::SimTime now, std::string* why = nullptr) const;

  /// Bytes resident in the cache's slot storage (megascale memory
  /// accounting).
  std::size_t memory_bytes() const noexcept { return seen_.memory_bytes(); }

 private:
  /// Id in the high word, origin in the low one: FlatMap's hash draws its
  /// home slot from the product's middle bits, which every bit of the low
  /// word reaches, so same-id floods from different origins spread out.
  /// Unique while ids stay below 2^32; never ~0, since no origin is
  /// kBroadcast.
  static std::uint64_t key(NodeId origin, std::uint64_t id) noexcept {
    return (id << 32) | origin;
  }

  sim::SimTime ttl_;
  util::FlatMap<std::uint64_t, sim::SimTime, ~0ULL> seen_;  // first sighting
  // End of the current expiry epoch (+inf while empty): insert() purges
  // once now reaches it, then re-arms it a full TTL out. Never tightened
  // to the oldest entry's expiry — see insert().
  sim::SimTime purge_due_ = kNeverDue;
  static constexpr sim::SimTime kNeverDue = 1e300;
};

}  // namespace p2p::net
