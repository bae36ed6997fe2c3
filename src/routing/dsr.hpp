// DSR — Dynamic Source Routing (Johnson & Maltz '96), the third protocol
// of the routing comparison in the paper's reference [13].
//
// On-demand like AODV, but routes live in the packets: a route request
// floods outward accumulating the node list it traversed; the target
// source-routes a reply back over the reversed list; data packets then
// carry the full hop list. Every node keeps a route *cache* of complete
// paths; a broken link is reported to the source with a route error and
// purged from caches along the way.
//
// Simplifications vs the full spec (documented in DESIGN.md): no
// promiscuous-mode route shortening and no packet salvaging; replies come
// only from the target (no cached-route replies), keeping routes fresh at
// the price of a few more floods — the conservative configuration.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/dup_cache.hpp"
#include "net/network.hpp"
#include "routing/messages.hpp"
#include "routing/service.hpp"
#include "sim/simulator.hpp"

namespace p2p::routing {

struct DsrParams {
  std::uint8_t max_route_len = 16;       // hops a request may accumulate
  sim::SimTime route_lifetime = 30.0;    // cached path freshness bound
};

/// Flooded route request; `path` holds the nodes traversed so far
/// (excluding the origin).
struct DsrRreq final : net::FramePayload {
  DsrRreq() noexcept { kind = static_cast<net::PayloadKind>(FrameKind::kDsrRreq); }
  NodeId origin = net::kInvalidNode;
  std::uint64_t request_id = 0;
  NodeId target = net::kInvalidNode;
  std::vector<NodeId> path;
};
inline std::size_t dsr_rreq_bytes(const DsrRreq& r) noexcept {
  return 16 + 4 * r.path.size();
}

/// Source-routed reply carrying the full discovered route
/// (origin .. target inclusive).
struct DsrRrep final : net::FramePayload {
  DsrRrep() noexcept { kind = static_cast<net::PayloadKind>(FrameKind::kDsrRrep); }
  std::vector<NodeId> route;   // route[0] = origin, route.back() = target
  std::uint8_t next_index = 0; // position of the *next* receiver, walking
                               // the route backwards from the target
};
inline std::size_t dsr_rrep_bytes(const DsrRrep& r) noexcept {
  return 12 + 4 * r.route.size();
}

/// Route error: link route[broken_index] -> route[broken_index+1] is gone.
struct DsrRerr final : net::FramePayload {
  DsrRerr() noexcept { kind = static_cast<net::PayloadKind>(FrameKind::kDsrRerr); }
  NodeId unreachable_from = net::kInvalidNode;
  NodeId unreachable_to = net::kInvalidNode;
  std::vector<NodeId> back_route;  // source route toward the data source
  std::uint8_t next_index = 0;
};
inline std::size_t dsr_rerr_bytes(const DsrRerr& r) noexcept {
  return 16 + 4 * r.back_route.size();
}

/// Source-routed application data.
struct DsrData final : net::FramePayload {
  DsrData() noexcept { kind = static_cast<net::PayloadKind>(FrameKind::kDsrData); }
  std::vector<NodeId> route;   // route[0] = src, route.back() = dst
  std::uint8_t next_index = 0; // receiver position within route
  AppPayloadPtr app;
};
inline std::size_t dsr_data_bytes(const DsrData& d) noexcept {
  return 12 + 4 * d.route.size() + (d.app ? d.app->size_bytes() : 0);
}

struct DsrStats {
  std::uint64_t rreq_originated = 0;
  std::uint64_t rreq_forwarded = 0;
  std::uint64_t rrep_sent = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t discoveries_failed = 0;
};

class DsrAgent final : public net::LinkListener, public RoutingService {
 public:
  DsrAgent(sim::Simulator& simulator, net::Network& network, NodeId self,
           const DsrParams& params);
  ~DsrAgent() override;

  DsrAgent(const DsrAgent&) = delete;
  DsrAgent& operator=(const DsrAgent&) = delete;

  void set_deliver_handler(DeliverFn fn) override { on_deliver_ = std::move(fn); }
  void send(NodeId dst, net::AppPayloadPtr app) override;
  /// 1-hop hints become cached direct routes; multi-hop hints carry no
  /// usable node list, so they are ignored.
  void learn_route(NodeId dst, NodeId via, std::uint8_t hops) override;
  bool has_route(NodeId dst) override;
  int route_hops(NodeId dst) override;
  Telemetry telemetry() const override {
    return Telemetry{stats_.rreq_originated + stats_.rreq_forwarded +
                         stats_.rrep_sent + stats_.rerr_sent,
                     stats_.data_delivered, stats_.data_dropped};
  }

  void on_frame(const net::Frame& frame) override;

  /// Node crash: drop the route cache, the request duplicate cache and
  /// every pending discovery (cancelling their timeouts and counting their
  /// buffered packets as dropped). next_request_id_ survives.
  void reset() override;

  const DsrStats& stats() const noexcept { return stats_; }
  NodeId self() const noexcept { return self_; }

  /// Approximate route-cache + pending-discovery + duplicate-cache
  /// footprint (queued payload bodies are accounted by the payload pools).
  std::size_t memory_bytes() const override;

 private:
  struct CachedRoute {
    std::vector<NodeId> path;  // path[0] == self_, path.back() == dst
    sim::SimTime learned = 0.0;
  };
  struct Pending {
    std::uint8_t retries_left = 0;
    sim::EventId timeout = sim::kInvalidEventId;
    std::deque<AppPayloadPtr> queue;
  };

  const CachedRoute* fresh_route(NodeId dst);
  void cache_route(std::vector<NodeId> full_path);
  void purge_link(NodeId from, NodeId to);

  void start_discovery(NodeId dst);
  void send_rreq(NodeId dst);
  void discovery_timeout(NodeId dst);
  void flush_queue(NodeId dst);

  void handle_rreq(const DsrRreq& rreq);
  void handle_rrep(const DsrRrep& rrep);
  void handle_rerr(const DsrRerr& rerr);
  void handle_data(DsrData data);
  /// Forward a source-routed message one hop; returns false on link break.
  bool forward_data(DsrData data);
  void report_break(const DsrData& data, NodeId broken_to);

  sim::Simulator* sim_;
  net::Network* net_;
  NodeId self_;
  DsrParams params_;
  std::unordered_map<NodeId, CachedRoute> cache_;
  std::unordered_map<NodeId, Pending> pending_;
  net::DupCache rreq_seen_;
  std::uint64_t next_request_id_ = 1;
  DeliverFn on_deliver_;
  DsrStats stats_;
};

}  // namespace p2p::routing
