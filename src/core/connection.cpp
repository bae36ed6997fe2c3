#include "core/connection.hpp"

#include "util/assert.hpp"

namespace p2p::core {

const char* conn_kind_name(ConnKind kind) noexcept {
  switch (kind) {
    case ConnKind::kBasic: return "basic";
    case ConnKind::kRegular: return "regular";
    case ConnKind::kRandom: return "random";
    case ConnKind::kMaster: return "master";
    case ConnKind::kSlave: return "slave";
  }
  return "?";
}

Connection& ConnectionTable::add(NodeId peer, ConnKind kind, bool initiator,
                                 sim::SimTime now) {
  P2P_ASSERT_MSG(!connected(peer), "duplicate connection to peer");
  auto conn = std::make_unique<Connection>();
  conn->peer = peer;
  conn->kind = kind;
  conn->initiator = initiator;
  conn->established = now;
  conn->last_heard = now;
  Connection& ref = *conn;
  conns_.emplace(peer, std::move(conn));
  return ref;
}

bool ConnectionTable::remove(NodeId peer) { return conns_.erase(peer) > 0; }

Connection* ConnectionTable::find(NodeId peer) {
  const auto it = conns_.find(peer);
  return it == conns_.end() ? nullptr : it->second.get();
}

const Connection* ConnectionTable::find(NodeId peer) const {
  const auto it = conns_.find(peer);
  return it == conns_.end() ? nullptr : it->second.get();
}

std::size_t ConnectionTable::count(ConnKind kind) const {
  std::size_t n = 0;
  for (const auto& [peer, conn] : conns_) {
    if (conn->kind == kind) ++n;
  }
  return n;
}

std::vector<NodeId> ConnectionTable::peers() const {
  std::vector<NodeId> out;
  out.reserve(conns_.size());
  for (const auto& [peer, conn] : conns_) out.push_back(peer);
  return out;
}

std::vector<NodeId> ConnectionTable::peers_of_kind(ConnKind kind) const {
  std::vector<NodeId> out;
  for (const auto& [peer, conn] : conns_) {
    if (conn->kind == kind) out.push_back(peer);
  }
  return out;
}

}  // namespace p2p::core
