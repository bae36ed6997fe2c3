// Routing service interface — what the application layer (and the flood
// service's cross-layer hint) sees, independent of the routing protocol
// underneath. AODV and DSR (on-demand) and DSDV (proactive) implement it,
// which is exactly the experiment of Oliveira et al. [13 in the paper]:
// evaluating ad-hoc routing protocols under a peer-to-peer application.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/types.hpp"

namespace p2p::routing {

class RoutingService {
 public:
  /// Delivered application data: (source, payload, hop distance traveled).
  using DeliverFn =
      std::function<void(net::NodeId src, net::AppPayloadPtr app, int hops)>;

  virtual ~RoutingService() = default;

  virtual void set_deliver_handler(DeliverFn fn) = 0;

  /// Unicast `app` toward `dst`. Best effort: on-demand protocols may
  /// buffer during discovery; proactive ones drop when no route exists.
  virtual void send(net::NodeId dst, net::AppPayloadPtr app) = 0;

  /// Cross-layer hint from the controlled broadcast: a flooded message
  /// from `dst` arrived via `via` after `hops` hops. Protocols are free
  /// to ignore it (DSDV does — its tables are proactively maintained).
  virtual void learn_route(net::NodeId dst, net::NodeId via,
                           std::uint8_t hops) = 0;

  /// Drop all volatile protocol state (routes, pending discoveries, caches)
  /// without sending anything — the node crashed. Monotonic identifiers
  /// (sequence numbers, broadcast ids) survive so the reborn node never
  /// reuses a stale id.
  virtual void reset() = 0;

  /// True if a usable route to dst currently exists.
  virtual bool has_route(net::NodeId dst) = 0;
  /// Hop count of the current route, or -1.
  virtual int route_hops(net::NodeId dst) = 0;

  /// Protocol-independent telemetry (the routing-overhead comparison of
  /// bench/ablation_routing).
  struct Telemetry {
    std::uint64_t control_messages_sent = 0;  // RREQ/RREP/RERR or updates
    std::uint64_t data_delivered = 0;
    std::uint64_t data_dropped = 0;
  };
  virtual Telemetry telemetry() const = 0;

  /// Approximate bytes of volatile protocol state (routing tables, route
  /// caches, duplicate caches) held by this agent — the per-node memory
  /// the mega-scale telemetry sums fleet-wide. Default: unaccounted.
  virtual std::size_t memory_bytes() const { return 0; }
};

}  // namespace p2p::routing
