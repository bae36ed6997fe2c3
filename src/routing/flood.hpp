// Controlled (hop-limited, duplicate-suppressed) application broadcast.
//
// This is the service every (re)configuration algorithm in the paper uses
// to "broadcast a message to discover other nodes within NHOPS away": a
// flood with a rebroadcast budget and a per-node cache so each node
// forwards a given message at most once — the authors' ns-2 modification.
//
// Receivers learn the hop distance the message traveled, which the P2P
// layer uses both as the "within nhops" radius check and as the distance
// estimate when picking the farthest candidate for a Random connection.
#pragma once

#include <cstdint>
#include <functional>

#include "net/dup_cache.hpp"
#include "net/network.hpp"
#include "routing/messages.hpp"
#include "routing/service.hpp"
#include "sim/simulator.hpp"

namespace p2p::routing {

struct FloodStats {
  std::uint64_t originated = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;   // handed to the local application
  std::uint64_t duplicates = 0;  // suppressed by the cache
};

class FloodService final : public net::LinkListener {
 public:
  /// Received flooded message: (origin, payload, hops traveled to reach us).
  using ReceiveFn = std::function<void(NodeId origin, AppPayloadPtr app, int hops)>;

  /// `routing` may be null; when set, every received flood offers a
  /// reverse-route hint to its origin (see RoutingService::learn_route).
  FloodService(sim::Simulator& simulator, net::Network& network, NodeId self,
               RoutingService* routing = nullptr);

  FloodService(const FloodService&) = delete;
  FloodService& operator=(const FloodService&) = delete;

  void set_receive_handler(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Originate a flood reaching every node within `max_hops` hops.
  /// Pre: max_hops >= 1.
  void flood(AppPayloadPtr app, int max_hops);

  void on_frame(const net::Frame& frame) override;

  const FloodStats& stats() const noexcept { return stats_; }
  NodeId self() const noexcept { return self_; }

  /// Node crash: forget all sightings (the reborn node must not suppress
  /// the first flood it should forward — its cache is volatile state) but
  /// keep next_flood_id_ so its own future floods are never mistaken for
  /// replays of pre-crash ones.
  void on_crash() { seen_.clear(); }

  /// Read-only cache view for the invariant sweep.
  const net::DupCache& dup_cache() const noexcept { return seen_; }

 private:
  sim::Simulator* sim_;
  net::Network* net_;
  NodeId self_;
  RoutingService* routing_;
  net::DupCache seen_;
  std::uint64_t next_flood_id_ = 1;
  ReceiveFn on_receive_;
  FloodStats stats_;
};

}  // namespace p2p::routing
