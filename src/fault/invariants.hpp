// Cross-layer invariant checker — the correctness oracle for faulted (and
// unfaulted) runs.
//
// Four invariant classes, validated by a full sweep on a configurable
// interval and at every fault boundary:
//   1. overlay connection symmetry: a non-Basic connection held by A
//      toward B implies B holds one toward A, modulo a grace window. A
//      silent close is only noticed by the peer's maintenance, so the
//      window is read from A's timers: max(silence_timeout, ping_interval
//      + pong_timeout) + 120 s (300 s at the defaults);
//   2. routing-table entries never point at a long-dead next hop (dead
//      over 25 s) with an expiry no legitimate refresh could have produced.
//      Reverse traffic from the destination may keep re-arming a route
//      whose next hop is dead (that self-heals on first use), but every
//      lifetime AODV grants is at most max(active_route_timeout,
//      my_route_timeout), read from the table owner's AodvParams, so an
//      expiry more than that plus 10 s out (30 s at the defaults) on a
//      route through a long-dead neighbor is corruption;
//   3. dup-cache internal consistency: insertion times never exceed the
//      current time and the expiry FIFO stays time-ordered;
//   4. per-node consumed energy is monotonically non-decreasing.
//
// Sweeps and the note_node_down/up hooks run as events on the run's global
// simulator. In sharded runs (sim/sharded.hpp) those execute alone with
// every shard quiesced, so the checker reads a consistent world on the
// sequential and the sharded path alike. Delivery to dead nodes is not an
// invariant here: Network::deliver filters dead receivers itself, and
// tests/test_network.cpp pins that filter on both paths.
//
// The checker is observational: it never mutates simulation state, so
// enabling it cannot change message/energy metrics (it does add sweep
// events, which shifts events_processed — the scenario cache keys on the
// check interval for that reason).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/servent.hpp"
#include "net/dup_cache.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "routing/aodv.hpp"
#include "routing/flood.hpp"
#include "sim/time.hpp"

namespace p2p::fault {

enum class InvariantKind : std::uint8_t {
  kAsymmetricOverlayEdge,
  kStaleRouteToDeadNeighbor,
  kDupCacheCorrupt,
  kEnergyDecreased,
};

const char* invariant_kind_name(InvariantKind kind) noexcept;

struct Violation {
  sim::SimTime time = 0.0;
  net::NodeId node = net::kInvalidNode;
  InvariantKind kind = InvariantKind::kAsymmetricOverlayEdge;
  std::string detail;  // human-readable context (peer, age, ...)
};

class InvariantChecker {
 public:
  explicit InvariantChecker(net::Network& network) : net_(&network) {}

  // ---- registration (scenario build time) ----
  void add_servent(core::Servent* servent);
  void add_aodv(routing::AodvAgent* agent);
  void add_flood(routing::FloodService* flood);

  // ---- fault-boundary notifications (injector hooks) ----
  void note_node_down(net::NodeId id, sim::SimTime now);
  void note_node_up(net::NodeId id, sim::SimTime now);

  /// Full cross-layer sweep (every invariant) at the current time.
  void sweep(sim::SimTime now);

  // ---- per-invariant checks. sweep() drives these; they are public so
  // the negative tests can feed deliberately corrupted state directly. ----
  void check_dup_cache(net::NodeId node, const net::DupCache& cache,
                       sim::SimTime now);
  void check_energy(net::NodeId node, double consumed_j, sim::SimTime now);

  /// Recorded violations (capped; see violations_total for the count).
  const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Exact number of violations observed, including any past the cap.
  std::uint64_t violations_total() const noexcept { return violations_total_; }
  std::uint64_t sweeps_run() const noexcept { return sweeps_; }

 private:
  void report(sim::SimTime time, net::NodeId node, InvariantKind kind,
              std::string detail);
  void sweep_overlay_symmetry(sim::SimTime now);
  void sweep_routing_tables(sim::SimTime now);

  net::Network* net_;
  std::vector<core::Servent*> servents_;
  std::unordered_map<net::NodeId, core::Servent*> servent_by_node_;
  std::vector<routing::AodvAgent*> aodv_;
  std::vector<routing::FloodService*> floods_;

  // First time a node was observed/reported dead (erased on recovery).
  std::unordered_map<net::NodeId, sim::SimTime> down_since_;
  // Last registered rebirth per node (note_node_up). An edge established
  // before its peer's last rebirth may legitimately stay one-sided forever:
  // the reborn peer answers pings (it must — Basic references depend on
  // unconditional pongs), so the holder never learns the peer forgot it.
  // Such edges degrade to Basic-like references; only one-sidedness that no
  // registered fault explains is a violation.
  std::unordered_map<net::NodeId, sim::SimTime> last_up_;
  // First time a one-sided directed edge (a->b) was observed.
  std::unordered_map<std::uint64_t, sim::SimTime> asym_since_;
  // Last consumed_j per node (invariant 4).
  std::vector<double> last_energy_;

  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace p2p::fault
