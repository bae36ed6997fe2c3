#include "routing/flood.hpp"

#include <memory>

#include "util/assert.hpp"

namespace p2p::routing {

namespace {
constexpr sim::SimTime kDedupTtl = 30.0;  // how long a sighting suppresses
}  // namespace

FloodService::FloodService(sim::Simulator& simulator, net::Network& network,
                           NodeId self, RoutingService* routing)
    : sim_(&simulator),
      net_(&network),
      self_(self),
      routing_(routing),
      seen_(kDedupTtl) {
  net_->attach_listener(self_, this);
}

void FloodService::flood(AppPayloadPtr app, int max_hops) {
  P2P_ASSERT(max_hops >= 1);
  net::Ref<FloodMsg> msg = net_->pools().make<FloodMsg>();
  FloodMsg* m = msg.edit();
  m->origin = self_;
  m->flood_id = next_flood_id_++;
  m->hops_remaining = static_cast<std::uint8_t>(max_hops - 1);
  m->hops_traveled = 0;
  m->app = std::move(app);
  seen_.insert(self_, m->flood_id, sim_->now());
  ++stats_.originated;
  const std::size_t bytes = flood_bytes(*m);
  net_->broadcast(self_, std::move(msg), bytes);
}

void FloodService::on_frame(const net::Frame& frame) {
  if (frame.payload->kind != static_cast<net::PayloadKind>(FrameKind::kFlood)) {
    return;
  }
  const auto* msg = static_cast<const FloodMsg*>(frame.payload.get());
  if (msg->origin == self_) return;  // own flood echoed back
  if (!seen_.insert(msg->origin, msg->flood_id, sim_->now())) {
    ++stats_.duplicates;
    return;
  }
  const int hops = int{msg->hops_traveled} + 1;
  if (routing_ != nullptr) {
    routing_->learn_route(msg->origin, frame.sender,
                          static_cast<std::uint8_t>(hops));
  }
  ++stats_.delivered;
  if (on_receive_) on_receive_(msg->origin, msg->app, hops);

  if (msg->hops_remaining > 0) {
    net::Ref<FloodMsg> fwd = net_->pools().make<FloodMsg>();
    FloodMsg* f = fwd.edit();
    *f = *msg;  // data copy; the slot's pool identity survives (rc-neutral)
    f->hops_remaining = static_cast<std::uint8_t>(msg->hops_remaining - 1);
    f->hops_traveled = static_cast<std::uint8_t>(msg->hops_traveled + 1);
    ++stats_.forwarded;
    const std::size_t bytes = flood_bytes(*f);
    net_->broadcast(self_, std::move(fwd), bytes);
  }
}

}  // namespace p2p::routing
