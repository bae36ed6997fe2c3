// Servent base class — everything the four (re)configuration algorithms
// share: message dispatch and counting, the symmetric 3-way connection
// handshake, ping/pong maintenance with distance checks, and the
// Gnutella-like query engine of §7.2.
//
// Subclasses implement the algorithm-specific parts: when to probe, whom
// to offer to, which offers to take, and (for Hybrid) the master/slave
// state machine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "content/catalog.hpp"
#include "core/connection.hpp"
#include "core/counters.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "net/dup_cache.hpp"
#include "net/network.hpp"
#include "routing/flood.hpp"
#include "routing/service.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace p2p::core {

/// Everything a servent needs from the world it lives in. All referenced
/// objects must outlive the servent.
struct ServentContext {
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  routing::RoutingService* routing = nullptr;  // AODV, DSDV or DSR
  routing::FloodService* flood = nullptr;
  NodeId self = net::kInvalidNode;
};

/// Sink for completed file requests (drives Figures 5/6).
class QueryRecorder {
 public:
  virtual ~QueryRecorder() = default;
  /// One request finished its 30 s response window.
  /// `answers` == 0 means unanswered; the distance fields are only
  /// meaningful when answered. `min_physical_hops` is the minimum over
  /// responders of the ad-hoc hop distance at answer time (-1 if no
  /// responder was physically reachable when measured); `min_p2p_hops` is
  /// the minimum overlay path length of any answering query copy.
  virtual void on_request_complete(FileId file, int answers,
                                   int min_physical_hops,
                                   int min_p2p_hops) = 0;
};

class Servent {
 public:
  Servent(const ServentContext& ctx, const P2pParams& params,
          sim::RngStream rng);
  virtual ~Servent();

  Servent(const Servent&) = delete;
  Servent& operator=(const Servent&) = delete;

  /// Join the p2p network at the current simulation time: starts the
  /// establish loop and (if configured) the query workload.
  void start();

  /// Node crash: silently drop all volatile state — connections (no Bye,
  /// no close-hook, not counted as "closed"), pending handshakes, pending
  /// queries, the duplicate-query cache, and every scheduled event. The
  /// monotonic id counters and the message/connection counters survive.
  /// on_crashed() lets the algorithm drop its own state. After crash()
  /// the servent is stopped; rejoin() brings it back.
  void crash();

  /// Restart a crashed servent as a fresh joiner (same identity, same RNG
  /// stream, empty state). Equivalent to start() on the reborn node.
  void rejoin();

  virtual AlgorithmKind algorithm() const noexcept = 0;

  /// Content this node shares. `member_index` is this servent's row in
  /// the placement. Must be set before start() if queries are enabled.
  void set_placement(const content::Placement* placement,
                     std::uint32_t member_index);
  void set_query_recorder(QueryRecorder* recorder) { recorder_ = recorder; }

  NodeId self() const noexcept { return ctx_.self; }
  const P2pParams& params() const noexcept { return params_; }
  const MessageCounters& counters() const noexcept { return counters_; }
  const ConnectionTable& connections() const noexcept { return conns_; }
  bool holds(FileId file) const;
  bool started() const noexcept { return started_; }
  /// Read-only duplicate-query cache view for the invariant sweep.
  const net::DupCache& seen_queries() const noexcept { return seen_queries_; }

  // Telemetry.
  std::uint64_t queries_sent() const noexcept { return queries_sent_; }
  std::uint64_t connections_established() const noexcept {
    return connections_established_;
  }
  std::uint64_t connections_closed() const noexcept {
    return connections_closed_;
  }

  /// Approximate bytes of base-servent volatile state: the handshake
  /// table, live connections, and the query duplicate cache. All of it is
  /// O(overlay degree + inflight handshakes) — first-touch allocated,
  /// never O(population) — which is what the mega-scale telemetry checks.
  std::size_t memory_bytes() const noexcept;

 protected:
  // ---- hooks for the concrete algorithms --------------------------------
  virtual void on_start() = 0;
  /// A flooded P2P message arrived (probes, captures).
  virtual void handle_flood(NodeId origin, const P2pMessage& msg, int hops) = 0;
  /// A unicast control message the base doesn't own (offers, captures,
  /// slave handshake). Base owns Ping/Pong/Bye/Query/QueryHit/Request/Ack.
  virtual void handle_control(NodeId src, const P2pMessage& msg, int hops) = 0;
  virtual void on_connection_established(Connection& conn) = 0;
  virtual void on_connection_closed(NodeId peer, ConnKind kind,
                                    CloseReason reason) = 0;
  /// Responder-side capacity policy for an incoming symmetric request.
  virtual bool can_accept(NodeId from, ConnKind kind) const = 0;
  /// Initiator-side capacity re-check at Ack time.
  virtual bool can_initiate(ConnKind kind) const = 0;
  /// A pending ConnectRequest failed (rejected or timed out).
  virtual void on_request_failed(NodeId /*peer*/, ConnKind /*kind*/) {}
  /// The node crashed (base state already dropped): cancel algorithm-level
  /// events and forget algorithm-level volatile state, silently.
  virtual void on_crashed() {}
  /// Maintenance distance bound; < 0 disables the check (Basic).
  virtual int max_distance_for(ConnKind kind) const;

  // ---- services for subclasses ------------------------------------------
  void send_msg(NodeId dst, P2pMessagePtr msg);
  void flood_msg(P2pMessagePtr msg, int hops);

  std::uint64_t new_probe_id() noexcept { return next_probe_id_++; }

  /// Install a connection and start its maintenance machinery.
  Connection& establish(NodeId peer, ConnKind kind, bool initiator);
  /// Tear down; optionally notify the peer with a Bye.
  void close_connection(NodeId peer, CloseReason reason, bool notify_peer);

  /// Start the symmetric 3-way handshake toward `peer` (step 2: we send
  /// ConnectRequest; ignored if already connected or already pending).
  void request_connection(NodeId peer, std::uint64_t probe_id, ProbeWant want,
                          ConnKind kind);
  std::size_t pending_requests(ConnKind kind) const;
  bool has_pending_request(NodeId peer) const {
    return pending_req_.find(peer) != nullptr;
  }

  ConnectionTable& conns() noexcept { return conns_; }
  const ConnectionTable& conns() const noexcept { return conns_; }
  sim::Simulator& sim() noexcept { return *ctx_.sim; }
  net::Network& network() noexcept { return *ctx_.net; }
  sim::RngStream& rng() noexcept { return rng_; }

  /// Cancel-and-rearm helper for the per-connection event slots.
  void arm(sim::EventId& slot, sim::SimTime delay, sim::EventFn fn);
  void disarm(sim::EventId& slot) noexcept;

 private:
  /// One entry of the peer-keyed handshake table (presence == active).
  /// Every entry is also listed in pending_peers_ (swap-remove;
  /// order_index is the backlink).
  struct PendingRequest {
    ConnKind kind = ConnKind::kRegular;
    sim::EventId timeout = sim::kInvalidEventId;
    std::uint32_t order_index = 0;
  };
  struct PendingQuery {
    FileId file = 0;
    int answers = 0;
    int min_physical = -1;
    int min_p2p = -1;
  };

  PendingRequest* pending_slot(NodeId peer) noexcept;
  void erase_pending(NodeId peer) noexcept;

  // Receive paths.
  void on_aodv_deliver(NodeId src, net::AppPayloadPtr app, int hops);
  void on_flood_receive(NodeId origin, net::AppPayloadPtr app, int hops);

  // Base-owned message handlers.
  void handle_ping(NodeId src, int hops);
  void handle_pong(NodeId src, int hops);
  void handle_bye(NodeId src);
  void handle_connect_request(NodeId src, const ConnectRequest& req);
  void handle_connect_ack(NodeId src, const ConnectAck& ack);
  void handle_query(NodeId src, const Query& query);
  void handle_query_hit(NodeId src, const QueryHit& hit);

  // Maintenance.
  void send_ping(NodeId peer);
  void maintenance_timeout(NodeId peer);

  // Query workload.
  void issue_query();
  void finalize_query(std::uint64_t query_id);
  void schedule_next_query(sim::SimTime delay);

  ServentContext ctx_;
  P2pParams params_;
  sim::RngStream rng_;
  MessageCounters counters_;
  ConnectionTable conns_;

  // Handshake state keyed by peer id plus the list of active peers.
  // O(inflight handshakes), not O(n): a servent can probe arbitrary
  // member ids, so a peer-indexed vector would grow to the population
  // size — disqualifying at mega-scale.
  util::FlatMap<NodeId, PendingRequest, net::kInvalidNode> pending_req_;
  std::vector<NodeId> pending_peers_;
  std::uint64_t next_probe_id_ = 1;

  const content::Placement* placement_ = nullptr;
  std::uint32_t member_index_ = 0;
  QueryRecorder* recorder_ = nullptr;
  net::DupCache seen_queries_{120.0};
  std::uint64_t next_query_id_ = 1;
  // The query engine issues the next query only after the previous one's
  // response window closed, so at most one query is ever pending: a single
  // slot replaces the old id->PendingQuery hash map. Stale finalize events
  // (possible across crash/rejoin) miss on the qid check.
  std::uint64_t pending_qid_ = 0;
  PendingQuery pending_query_;
  bool has_pending_query_ = false;
  sim::EventId query_event_ = sim::kInvalidEventId;
  bool started_ = false;

  std::uint64_t queries_sent_ = 0;
  std::uint64_t connections_established_ = 0;
  std::uint64_t connections_closed_ = 0;
};

}  // namespace p2p::core
