// AODV routing agent (RFC 3561), one instance per node.
//
// On-demand route discovery with expanding-ring RREQ floods, RREP unicast
// along reverse paths, RERR propagation to precursors, and link-break
// detection via link-layer feedback (the forwarding node checks the next
// hop is still in radio range — the standard ns-2 configuration the paper
// used, which runs AODV without HELLO beacons).
//
// The P2P layer uses exactly two services, matching what a Gnutella-like
// agent sees on top of ns-2 AODV:
//   * send(dst, payload)            — unicast with on-demand discovery;
//   * learn_route(dst, via, hops)   — cross-layer hint from the controlled
//     broadcast service so that replies to flooded probes don't each cost
//     a full RREQ flood (the authors' ns-2 patch integrates the broadcast
//     cache into AODV the same way).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "net/dup_cache.hpp"
#include "net/network.hpp"
#include "routing/messages.hpp"
#include "routing/routing_table.hpp"
#include "routing/service.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace p2p::routing {

struct AodvParams {
  sim::SimTime active_route_timeout = 10.0;  // ns-2 AODV default (mobile, no hello)
  sim::SimTime my_route_timeout = 20.0;      // 2 * active_route_timeout
  std::uint8_t ttl_start = 2;
  std::uint8_t ttl_increment = 2;
  std::uint8_t ttl_threshold = 7;
  std::size_t send_queue_limit = 64;         // packets buffered per discovery
};

struct AodvStats {
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;   // counted at the destination
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped = 0;     // no route / discovery failure
  std::uint64_t rreq_originated = 0;
  std::uint64_t rreq_forwarded = 0;
  std::uint64_t rrep_sent = 0;
  std::uint64_t rrep_forwarded = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t discoveries_failed = 0;
};

class AodvAgent final : public net::LinkListener, public RoutingService {
 public:
  AodvAgent(sim::Simulator& simulator, net::Network& network, NodeId self,
            const AodvParams& params);
  ~AodvAgent() override;

  AodvAgent(const AodvAgent&) = delete;
  AodvAgent& operator=(const AodvAgent&) = delete;

  void set_deliver_handler(DeliverFn fn) override {
    on_deliver_ = std::move(fn);
  }

  /// Unicast `app` to `dst`, discovering a route if needed. Packets are
  /// buffered during discovery (bounded queue, drop-oldest) and dropped if
  /// discovery ultimately fails.
  void send(NodeId dst, AppPayloadPtr app) override;

  /// Cross-layer hint: a flooded message from `dst` just arrived via
  /// neighbor `via` after `hops` hops — install/refresh the reverse route
  /// if it is no worse than what we have.
  void learn_route(NodeId dst, NodeId via, std::uint8_t hops) override;

  /// True if a valid route to dst currently exists (no discovery started).
  bool has_route(NodeId dst) override;
  /// Hop count of the active route, or -1.
  int route_hops(NodeId dst) override;

  void on_frame(const net::Frame& frame) override;

  Telemetry telemetry() const override {
    return Telemetry{stats_.rreq_originated + stats_.rreq_forwarded +
                         stats_.rrep_sent + stats_.rrep_forwarded +
                         stats_.rerr_sent,
                     stats_.data_delivered, stats_.data_dropped};
  }

  /// Node crash: drop the routing table, the RREQ duplicate cache, and
  /// every pending discovery (cancelling their timeouts and dropping their
  /// buffered packets) without transmitting anything. own_seq_ and
  /// next_bcast_id_ survive — a reborn node must not reuse (origin, id)
  /// pairs its neighbors may still remember.
  void reset() override;

  /// Routing table + RREQ duplicate-cache slot storage plus the pending
  /// discovery map (queued payload bodies excluded — those are accounted
  /// by the payload pools).
  std::size_t memory_bytes() const override {
    return table_.memory_bytes() + rreq_seen_.memory_bytes() +
           pending_.size() *
               (sizeof(NodeId) + sizeof(PendingDiscovery) + 2 * sizeof(void*));
  }

  const AodvStats& stats() const noexcept { return stats_; }
  const AodvParams& params() const noexcept { return params_; }
  NodeId self() const noexcept { return self_; }
  RoutingTable& table() noexcept { return table_; }
  /// Read-only RREQ duplicate-cache view for the invariant sweep.
  const net::DupCache& rreq_cache() const noexcept { return rreq_seen_; }

 private:
  struct PendingDiscovery {
    std::uint8_t retries_left = 0;
    std::uint8_t last_ttl = 0;
    sim::EventId timeout = sim::kInvalidEventId;
    std::deque<AppPayloadPtr> queue;
  };

  void handle_rreq(NodeId from, const Rreq& rreq);
  void handle_rrep(NodeId from, const Rrep& rrep);
  void handle_rerr(NodeId from, const Rerr& rerr);
  void handle_data(NodeId from, const DataMsg& data);

  void start_discovery(NodeId dst);
  void send_rreq(NodeId dst, std::uint8_t ttl);
  void discovery_timeout(NodeId dst);
  void flush_queue(NodeId dst);

  /// Forward or locally deliver a data message whose next hop is us.
  void route_data(DataMsg data);
  /// The link to `next_hop` is gone: invalidate routes, notify precursors.
  void handle_link_break(NodeId next_hop);
  void send_rerr_to_precursors(const std::vector<NodeId>& lost_dsts);

  sim::Simulator* sim_;
  net::Network* net_;
  NodeId self_;
  AodvParams params_;

  RoutingTable table_;
  net::DupCache rreq_seen_;
  std::uint32_t own_seq_ = 0;
  std::uint64_t next_bcast_id_ = 1;
  std::unordered_map<NodeId, PendingDiscovery> pending_;
  DeliverFn on_deliver_;
  AodvStats stats_;
  // Reused by handle_link_break so per-break destination sweeps allocate
  // nothing in steady state (link breaks are frequent under churn).
  std::vector<NodeId> via_scratch_;
};

}  // namespace p2p::routing
