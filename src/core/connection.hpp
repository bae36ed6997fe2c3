// P2P "connections".
//
// Paper §6: "there are no real connections ... the so called connections
// actually are references, that is, they represent the knowledge of the
// addresses of some reachable nodes." A Connection is therefore purely
// local state; symmetry is a protocol property established by the 3-way
// handshake, not a transport one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace p2p::core {

using net::NodeId;

enum class ConnKind : std::uint8_t {
  kBasic,    // asymmetric reference (Basic algorithm)
  kRegular,  // symmetric, radius-limited
  kRandom,   // symmetric, long-range "small-world" link
  kMaster,   // Hybrid: master <-> master (regular semantics)
  kSlave,    // Hybrid: slave -> master link
};

const char* conn_kind_name(ConnKind kind) noexcept;

enum class CloseReason : std::uint8_t {
  kPongTimeout,    // initiator: no pong
  kSilenceTimeout, // responder: no pings
  kTooFar,         // distance check failed (MAXDIST / 2*MAXDIST)
  kPeerClosed,     // received Bye
  kLocalDecision,  // algorithm closed it (e.g. master reverting to initial)
};

struct Connection {
  NodeId peer = net::kInvalidNode;
  ConnKind kind = ConnKind::kRegular;
  /// True if we asked for the connection — the paper's maintenance rule:
  /// only the initiating vertex sends pings (Basic references are always
  /// initiator-side).
  bool initiator = false;
  sim::SimTime established = 0.0;
  sim::SimTime last_heard = 0.0;
  int last_distance = -1;  // ad-hoc hop distance observed at last pong/ping

  // Maintenance events, managed by the owning Servent and cancelled on
  // close. Initiator: ping_event = next ping, timeout_event = pong wait.
  // Responder: timeout_event = ping-silence watchdog.
  sim::EventId ping_event = sim::kInvalidEventId;
  sim::EventId timeout_event = sim::kInvalidEventId;
};

/// All live connections of one servent, keyed by peer (at most one
/// connection per peer, as references are per-address).
class ConnectionTable {
 public:
  /// Insert; pre: no existing connection to this peer.
  Connection& add(NodeId peer, ConnKind kind, bool initiator,
                  sim::SimTime now);
  /// Remove; returns false if absent. Does NOT cancel events — the owning
  /// Servent does that before removal.
  bool remove(NodeId peer);

  Connection* find(NodeId peer);
  const Connection* find(NodeId peer) const;
  bool connected(NodeId peer) const { return find(peer) != nullptr; }

  std::size_t size() const noexcept { return conns_.size(); }
  std::size_t count(ConnKind kind) const;
  bool has(ConnKind kind) const { return count(kind) > 0; }

  /// Peers in ascending id order (stable iteration for determinism).
  std::vector<NodeId> peers() const;
  std::vector<NodeId> peers_of_kind(ConnKind kind) const;

 private:
  std::map<NodeId, std::unique_ptr<Connection>> conns_;
};

}  // namespace p2p::core
