#include "fault/invariants.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace p2p::fault {

namespace {
// Recording cap: a genuinely broken build could report per node per sweep;
// keep the vector bounded while the total count stays exact.
constexpr std::size_t kMaxRecorded = 1024;

// Slack over the longest a silent close can go unnoticed: the responder's
// silence timeout, or the initiator's ping interval plus pong timeout.
constexpr double kAsymmetrySlackS = 120.0;
// A route's next hop must be dead this long before the route is suspect.
constexpr double kStaleRouteGraceS = 25.0;
// Slack over the longest lifetime AODV grants: active_route_timeout on a
// refresh or neighbor route, my_route_timeout (or less) in a RREP. A
// reverse route's 2 * NET_TRAVERSAL_TIME (5.6 s) is below the slack alone.
constexpr double kRouteLifetimeSlackS = 10.0;

std::uint64_t edge_key(net::NodeId a, net::NodeId b) noexcept {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}
}  // namespace

const char* invariant_kind_name(InvariantKind kind) noexcept {
  switch (kind) {
    case InvariantKind::kAsymmetricOverlayEdge: return "asymmetric-overlay-edge";
    case InvariantKind::kStaleRouteToDeadNeighbor:
      return "stale-route-to-dead-neighbor";
    case InvariantKind::kDupCacheCorrupt: return "dup-cache-corrupt";
    case InvariantKind::kEnergyDecreased: return "energy-decreased";
  }
  return "?";
}

void InvariantChecker::add_servent(core::Servent* servent) {
  servents_.push_back(servent);
  servent_by_node_.emplace(servent->self(), servent);
}

void InvariantChecker::add_aodv(routing::AodvAgent* agent) {
  aodv_.push_back(agent);
}

void InvariantChecker::add_flood(routing::FloodService* flood) {
  floods_.push_back(flood);
}

void InvariantChecker::note_node_down(net::NodeId id, sim::SimTime now) {
  down_since_.emplace(id, now);  // keep the earliest death time
}

void InvariantChecker::note_node_up(net::NodeId id, sim::SimTime now) {
  down_since_.erase(id);
  last_up_[id] = now;
}

void InvariantChecker::report(sim::SimTime time, net::NodeId node,
                              InvariantKind kind, std::string detail) {
  ++violations_total_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back({time, node, kind, std::move(detail)});
  }
}

// ---------------------------------------------------------------- sweeps

void InvariantChecker::sweep(sim::SimTime now) {
  ++sweeps_;
  // Battery deaths are not announced by the injector; pick them up here so
  // the stale-route clock starts at the first sweep that sees them.
  for (net::NodeId id = 0; id < net_->size(); ++id) {
    if (!net_->alive(id)) {
      down_since_.emplace(id, now);
    } else {
      down_since_.erase(id);
    }
  }

  sweep_overlay_symmetry(now);
  sweep_routing_tables(now);
  for (const routing::FloodService* flood : floods_) {
    check_dup_cache(flood->self(), flood->dup_cache(), now);
  }
  for (const routing::AodvAgent* agent : aodv_) {
    check_dup_cache(agent->self(), agent->rreq_cache(), now);
  }
  for (const core::Servent* servent : servents_) {
    check_dup_cache(servent->self(), servent->seen_queries(), now);
  }
  for (net::NodeId id = 0; id < net_->size(); ++id) {
    check_energy(id, net_->energy(id).consumed_j(), now);
  }
}

void InvariantChecker::sweep_overlay_symmetry(sim::SimTime now) {
  for (const core::Servent* servent : servents_) {
    const net::NodeId self = servent->self();
    if (!net_->alive(self)) continue;
    const core::P2pParams& p2p = servent->params();
    const double grace =
        std::max(p2p.silence_timeout, p2p.ping_interval + p2p.pong_timeout) +
        kAsymmetrySlackS;
    for (const net::NodeId peer : servent->connections().peers()) {
      const core::Connection* conn = servent->connections().find(peer);
      if (conn == nullptr || conn->kind == core::ConnKind::kBasic) {
        continue;  // Basic references are asymmetric by design
      }
      const auto it = servent_by_node_.find(peer);
      if (it == servent_by_node_.end()) continue;  // peer not a member
      const std::uint64_t key = edge_key(self, peer);
      if (it->second->connections().connected(self)) {
        asym_since_.erase(key);
        continue;
      }
      // An edge older than its peer's last rebirth is explained by that
      // registered fault: the reborn peer forgot it but keeps answering
      // pings, so the holder can never notice (see last_up_ in the header).
      const auto up = last_up_.find(peer);
      if (up != last_up_.end() && conn->established <= up->second) {
        asym_since_.erase(key);
        continue;
      }
      const auto [pos, fresh] = asym_since_.emplace(key, now);
      if (!fresh && now - pos->second > grace) {
        std::ostringstream os;
        os << core::conn_kind_name(conn->kind) << " edge to " << peer
           << " one-sided for " << now - pos->second << " s";
        report(now, self, InvariantKind::kAsymmetricOverlayEdge, os.str());
        pos->second = now;  // re-report only after another full grace period
      }
    }
  }
}

void InvariantChecker::sweep_routing_tables(sim::SimTime now) {
  for (routing::AodvAgent* agent : aodv_) {
    if (!net_->alive(agent->self())) continue;  // dead tables are wiped/frozen
    const double bound = std::max(agent->params().active_route_timeout,
                                  agent->params().my_route_timeout) +
                         kRouteLifetimeSlackS;
    for (const auto& [dst, route] : agent->table().all()) {
      if (!route.valid || route.expires <= now) continue;
      const auto it = down_since_.find(route.next_hop);
      if (it == down_since_.end()) continue;
      const double dead_for = now - it->second;
      // Reverse traffic from `dst` legitimately re-arms this route even
      // while the next hop is dead (it self-heals on first send attempt),
      // but no refresh can push the expiry past the lifetime bound.
      if (dead_for > kStaleRouteGraceS && route.expires > now + bound) {
        std::ostringstream os;
        os << "active route to " << dst << " via " << route.next_hop
           << ", dead for " << dead_for << " s, expires in "
           << route.expires - now << " s";
        report(now, agent->self(), InvariantKind::kStaleRouteToDeadNeighbor,
               os.str());
      }
    }
  }
}

void InvariantChecker::check_dup_cache(net::NodeId node,
                                       const net::DupCache& cache,
                                       sim::SimTime now) {
  std::string why;
  if (!cache.validate(now, &why)) {
    report(now, node, InvariantKind::kDupCacheCorrupt, std::move(why));
  }
}

void InvariantChecker::check_energy(net::NodeId node, double consumed_j,
                                    sim::SimTime now) {
  if (last_energy_.size() <= node) last_energy_.resize(node + 1, 0.0);
  if (consumed_j + 1e-9 < last_energy_[node]) {
    std::ostringstream os;
    os << "consumed energy fell from " << last_energy_[node] << " to "
       << consumed_j << " J";
    report(now, node, InvariantKind::kEnergyDecreased, os.str());
    return;  // keep the high-water mark so the fall is reported once
  }
  if (consumed_j > last_energy_[node]) last_energy_[node] = consumed_j;
}

}  // namespace p2p::fault
