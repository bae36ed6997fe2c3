// AODV routing table (RFC 3561 §2, §6.2).
//
// Loop freedom comes from destination sequence numbers: a route is only
// replaced by one with a newer sequence number, or an equal sequence
// number and strictly fewer hops.
//
// Representation: an open-addressed map keyed by destination id
// (util::FlatMap) — O(routes actually learned) memory per node at every
// population, the mega-scale requirement. A hot-path lookup is one
// multiplicative hash plus a short linear probe.
//
// Expiry state lives intrusively in the Route entries (`valid`/`expires`)
// and is swept in place (find_active invalidates lazily, destinations_via
// skips expired entries during its scan); there is no auxiliary expiry
// structure to keep in sync. Entries are reset to pristine state when a
// destination is re-claimed after clear(), so a reborn node never
// observes stale precursors or a stale max-expiry from its previous life.
//
// Ordering contracts (pinned by the determinism suite): destinations_via
// returns ascending destinations (the platform-independent RERR order)
// and all() iterates ascending by destination. Both sort the extracted
// keys, so hash-slot layout never reaches an observable order.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace p2p::routing {

using net::NodeId;

struct Route {
  NodeId next_hop = net::kInvalidNode;
  std::uint8_t hop_count = 0;
  std::uint32_t dst_seq = 0;
  bool seq_valid = false;
  bool valid = false;          // invalidated routes keep their seq number
  sim::SimTime expires = 0.0;  // lifetime for valid routes
  std::set<NodeId> precursors; // neighbors routing through us to this dst
};

class RoutingTable {
 public:
  /// Valid, unexpired route or nullptr. Expired routes are invalidated
  /// as a side effect (their sequence numbers survive).
  Route* find_active(NodeId dst, sim::SimTime now);
  const Route* find(NodeId dst) const noexcept { return entries_.find(dst); }

  /// Would a route advertising (seq, seq_valid, hops) replace what we have
  /// for dst? Implements the RFC 3561 §6.2 freshness comparison.
  bool is_better(NodeId dst, std::uint32_t seq, bool seq_valid,
                 std::uint8_t hops, sim::SimTime now) const;

  /// Install/overwrite the route (callers check is_better first when the
  /// update comes from the network; unconditional for e.g. neighbor routes).
  Route& update(NodeId dst, NodeId next_hop, std::uint8_t hops,
                std::uint32_t seq, bool seq_valid, sim::SimTime expires);

  /// Extend the lifetime of an active route (route used for forwarding).
  void refresh(NodeId dst, sim::SimTime expires);

  /// Mark the route invalid and bump its sequence number (RFC 3561 §6.11).
  /// Returns false if there was no route entry at all.
  bool invalidate(NodeId dst);

  void add_precursor(NodeId dst, NodeId precursor);

  /// Destinations whose active route uses `next_hop` (link-break handling),
  /// in ascending destination order. Clears and reuses `out` so per-break
  /// handling allocates nothing in steady state.
  void destinations_via(NodeId next_hop, sim::SimTime now,
                        std::vector<NodeId>* out) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Forget every route, sequence numbers included (node crash: a reborn
  /// node starts from an empty table, RFC 3561 §6.13 handles seq reuse).
  /// Slot storage is retained; entries are reset to pristine on reuse.
  void clear() noexcept;

  /// Bytes resident in the table's slot storage (megascale memory
  /// accounting; excludes per-route precursor set heap nodes).
  std::size_t memory_bytes() const noexcept { return entries_.memory_bytes(); }

  struct Entry {
    NodeId dst;
    const Route& route;
  };
  /// Every entry, ascending by destination, for cross-layer invariant
  /// sweeps (cold path: allocates). The references are valid until the
  /// table next changes.
  std::vector<Entry> all() const;

 private:
  util::FlatMap<NodeId, Route, net::kInvalidNode> entries_;
};

}  // namespace p2p::routing
