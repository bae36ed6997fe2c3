#include "routing/dsr.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"

namespace p2p::routing {

namespace {
constexpr sim::SimTime kDiscoveryTimeout = 2.0;  // wait per request round
constexpr std::uint8_t kDiscoveryRetries = 2;
constexpr sim::SimTime kRequestIdCacheTtl = 6.0;
constexpr std::size_t kSendQueueLimit = 64;  // packets buffered per discovery
}  // namespace

DsrAgent::DsrAgent(sim::Simulator& simulator, net::Network& network,
                   NodeId self, const DsrParams& params)
    : sim_(&simulator),
      net_(&network),
      self_(self),
      params_(params),
      rreq_seen_(kRequestIdCacheTtl) {
  net_->attach_listener(self_, this);
}

DsrAgent::~DsrAgent() {
  for (auto& [dst, pending] : pending_) {
    if (pending.timeout != sim::kInvalidEventId) sim_->cancel(pending.timeout);
  }
}

void DsrAgent::reset() {
  for (auto& [dst, pending] : pending_) {
    if (pending.timeout != sim::kInvalidEventId) sim_->cancel(pending.timeout);
    stats_.data_dropped += pending.queue.size();
  }
  pending_.clear();
  cache_.clear();
  rreq_seen_.clear();
}

// ------------------------------------------------------------------ cache

const DsrAgent::CachedRoute* DsrAgent::fresh_route(NodeId dst) {
  const auto it = cache_.find(dst);
  if (it == cache_.end()) return nullptr;
  if (it->second.learned + params_.route_lifetime <= sim_->now()) {
    cache_.erase(it);
    return nullptr;
  }
  return &it->second;
}

void DsrAgent::cache_route(std::vector<NodeId> full_path) {
  P2P_ASSERT(full_path.size() >= 2);
  P2P_ASSERT(full_path.front() == self_);
  const NodeId dst = full_path.back();
  auto& entry = cache_[dst];
  const bool better = entry.path.empty() ||
                      full_path.size() <= entry.path.size() ||
                      entry.learned + params_.route_lifetime <= sim_->now();
  if (better) {
    entry.path = std::move(full_path);
    entry.learned = sim_->now();
  }
  // Prefix routes: every prefix of a cached path is itself a path.
  // (Deliberately not expanded eagerly; fresh_route() misses fall back to
  // discovery, keeping the cache small.)
}

void DsrAgent::purge_link(NodeId from, NodeId to) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    const auto& path = it->second.path;
    bool uses = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == from && path[i + 1] == to) {
        uses = true;
        break;
      }
    }
    it = uses ? cache_.erase(it) : std::next(it);
  }
}

// -------------------------------------------------------------- discovery

void DsrAgent::send(NodeId dst, net::AppPayloadPtr app) {
  P2P_ASSERT(dst != self_);
  if (const CachedRoute* route = fresh_route(dst)) {
    const NodeId next = route->path[1];
    if (net_->in_range(self_, next)) {
      ++stats_.cache_hits;
      DsrData data;
      data.route = route->path;
      data.next_index = 1;
      data.app = std::move(app);
      forward_data(std::move(data));
      return;
    }
    // First hop is already gone: purge and rediscover with the packet
    // queued (link-layer feedback, same as AODV's configuration).
    purge_link(self_, next);
  }
  auto& pending = pending_[dst];
  if (pending.queue.size() >= kSendQueueLimit) {
    pending.queue.pop_front();
    ++stats_.data_dropped;
  }
  pending.queue.push_back(std::move(app));
  if (pending.timeout == sim::kInvalidEventId) start_discovery(dst);
}

void DsrAgent::learn_route(NodeId dst, NodeId via, std::uint8_t hops) {
  if (hops == 1 && via == dst) {
    cache_route({self_, dst});
    if (pending_.count(dst) != 0) flush_queue(dst);
  }
}

bool DsrAgent::has_route(NodeId dst) { return fresh_route(dst) != nullptr; }

int DsrAgent::route_hops(NodeId dst) {
  const CachedRoute* route = fresh_route(dst);
  return route == nullptr ? -1 : static_cast<int>(route->path.size() - 1);
}

void DsrAgent::start_discovery(NodeId dst) {
  auto& pending = pending_[dst];
  pending.retries_left = kDiscoveryRetries;
  send_rreq(dst);
}

void DsrAgent::send_rreq(NodeId dst) {
  DsrRreq rreq;
  rreq.origin = self_;
  rreq.request_id = next_request_id_++;
  rreq.target = dst;
  rreq_seen_.insert(self_, rreq.request_id, sim_->now());
  ++stats_.rreq_originated;
  const std::size_t bytes = dsr_rreq_bytes(rreq);
  net_->broadcast(self_, net_->pools().make_from(std::move(rreq)), bytes);
  auto& pending = pending_[dst];
  pending.timeout = sim_->after(kDiscoveryTimeout,
                                [this, dst] { discovery_timeout(dst); });
}

void DsrAgent::discovery_timeout(NodeId dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  it->second.timeout = sim::kInvalidEventId;
  if (fresh_route(dst) != nullptr) {
    flush_queue(dst);
    return;
  }
  if (it->second.retries_left == 0) {
    ++stats_.discoveries_failed;
    stats_.data_dropped += it->second.queue.size();
    pending_.erase(it);
    return;
  }
  --it->second.retries_left;
  send_rreq(dst);
}

void DsrAgent::flush_queue(NodeId dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  if (it->second.timeout != sim::kInvalidEventId) sim_->cancel(it->second.timeout);
  std::deque<net::AppPayloadPtr> queue = std::move(it->second.queue);
  pending_.erase(it);
  for (auto& app : queue) send(dst, std::move(app));
}

// --------------------------------------------------------------- handlers

void DsrAgent::handle_rreq(const DsrRreq& rreq) {
  if (rreq.origin == self_) return;
  if (!rreq_seen_.insert(rreq.origin, rreq.request_id, sim_->now())) return;
  // Nodes already in the accumulated path don't process again (loop guard;
  // the id cache normally catches this first).
  if (std::find(rreq.path.begin(), rreq.path.end(), self_) != rreq.path.end()) {
    return;
  }

  if (rreq.target == self_) {
    // Build the full route origin .. self and source-route the reply back.
    std::vector<NodeId> route;
    route.reserve(rreq.path.size() + 2);
    route.push_back(rreq.origin);
    route.insert(route.end(), rreq.path.begin(), rreq.path.end());
    route.push_back(self_);
    // The reply walks the route backwards; we also learn the reverse path.
    {
      std::vector<NodeId> reverse(route.rbegin(), route.rend());
      cache_route(std::move(reverse));
    }
    DsrRrep rrep;
    rrep.route = std::move(route);
    rrep.next_index =
        static_cast<std::uint8_t>(rrep.route.size() - 2);  // our predecessor
    const NodeId next = rrep.route[rrep.next_index];
    ++stats_.rrep_sent;
    const std::size_t bytes = dsr_rrep_bytes(rrep);
    net_->unicast(self_, next, net_->pools().make_from(std::move(rrep)), bytes);
    return;
  }

  if (rreq.path.size() >= params_.max_route_len) return;
  DsrRreq fwd = rreq;
  fwd.path.push_back(self_);
  ++stats_.rreq_forwarded;
  const std::size_t bytes = dsr_rreq_bytes(fwd);
  net_->broadcast(self_, net_->pools().make_from(std::move(fwd)), bytes);
}

void DsrAgent::handle_rrep(const DsrRrep& rrep) {
  P2P_DASSERT(rrep.next_index < rrep.route.size());
  if (rrep.route[rrep.next_index] != self_) return;
  if (rrep.next_index == 0) {
    // We are the origin: cache the full forward route and drain the queue.
    std::vector<NodeId> route = rrep.route;
    const NodeId dst = route.back();
    cache_route(std::move(route));
    flush_queue(dst);
    return;
  }
  DsrRrep fwd = rrep;
  fwd.next_index = static_cast<std::uint8_t>(rrep.next_index - 1);
  const NodeId next = fwd.route[fwd.next_index];
  const std::size_t bytes = dsr_rrep_bytes(fwd);
  if (!net_->in_range(self_, next)) return;  // reply dies; origin retries
  net_->unicast(self_, next, net_->pools().make_from(std::move(fwd)), bytes);
}

void DsrAgent::handle_rerr(const DsrRerr& rerr) {
  purge_link(rerr.unreachable_from, rerr.unreachable_to);
  P2P_DASSERT(rerr.next_index < rerr.back_route.size());
  if (rerr.back_route[rerr.next_index] != self_) return;
  if (rerr.next_index == 0) return;  // reached the data source
  DsrRerr fwd = rerr;
  fwd.next_index = static_cast<std::uint8_t>(rerr.next_index - 1);
  const NodeId next = fwd.back_route[fwd.next_index];
  if (!net_->in_range(self_, next)) return;
  ++stats_.rerr_sent;
  const std::size_t bytes = dsr_rerr_bytes(fwd);
  net_->unicast(self_, next, net_->pools().make_from(std::move(fwd)), bytes);
}

bool DsrAgent::forward_data(DsrData data) {
  P2P_DASSERT(data.next_index < data.route.size());
  const NodeId next = data.route[data.next_index];
  if (!net_->in_range(self_, next)) {
    report_break(data, next);
    return false;
  }
  const std::size_t bytes = dsr_data_bytes(data);
  net_->unicast(self_, next, net_->pools().make_from(std::move(data)), bytes);
  return true;
}

void DsrAgent::report_break(const DsrData& data, NodeId broken_to) {
  purge_link(self_, broken_to);
  const NodeId src = data.route.front();
  if (src == self_) return;  // we are the source; our cache is purged
  // Back route: the prefix of the data route up to us, walked backwards.
  DsrRerr rerr;
  rerr.unreachable_from = self_;
  rerr.unreachable_to = broken_to;
  const auto self_pos = static_cast<std::size_t>(data.next_index) - 1;
  rerr.back_route.assign(data.route.begin(),
                         data.route.begin() +
                             static_cast<std::ptrdiff_t>(self_pos) + 1);
  if (rerr.back_route.size() < 2) return;
  rerr.next_index = static_cast<std::uint8_t>(rerr.back_route.size() - 2);
  const NodeId next = rerr.back_route[rerr.next_index];
  if (!net_->in_range(self_, next)) return;
  ++stats_.rerr_sent;
  const std::size_t bytes = dsr_rerr_bytes(rerr);
  net_->unicast(self_, next, net_->pools().make_from(std::move(rerr)), bytes);
}

void DsrAgent::handle_data(DsrData data) {
  if (data.route[data.next_index] != self_) return;
  if (data.next_index + 1U == data.route.size()) {
    ++stats_.data_delivered;
    if (on_deliver_) {
      on_deliver_(data.route.front(), std::move(data.app),
                  static_cast<int>(data.route.size() - 1));
    }
    return;
  }
  ++stats_.data_forwarded;
  data.next_index = static_cast<std::uint8_t>(data.next_index + 1);
  if (!forward_data(std::move(data))) ++stats_.data_dropped;
}

void DsrAgent::on_frame(const net::Frame& frame) {
  switch (static_cast<FrameKind>(frame.payload->kind)) {
    case FrameKind::kDsrRreq:
      handle_rreq(*static_cast<const DsrRreq*>(frame.payload.get()));
      break;
    case FrameKind::kDsrRrep:
      if (frame.link_dst == self_) {
        handle_rrep(*static_cast<const DsrRrep*>(frame.payload.get()));
      }
      break;
    case FrameKind::kDsrRerr:
      if (frame.link_dst == self_) {
        handle_rerr(*static_cast<const DsrRerr*>(frame.payload.get()));
      }
      break;
    case FrameKind::kDsrData:
      if (frame.link_dst == self_) {
        handle_data(*static_cast<const DsrData*>(frame.payload.get()));
      }
      break;
    default:
      break;
  }
}

std::size_t DsrAgent::memory_bytes() const {
  constexpr std::size_t kMapNodeOverhead = 2 * sizeof(void*);
  std::size_t bytes = rreq_seen_.memory_bytes();
  for (const auto& [dst, cached] : cache_) {
    bytes += sizeof(dst) + sizeof(cached) + kMapNodeOverhead +
             cached.path.capacity() * sizeof(NodeId);
  }
  bytes += pending_.size() *
           (sizeof(NodeId) + sizeof(Pending) + kMapNodeOverhead);
  return bytes;
}

}  // namespace p2p::routing
