#include "core/servent.hpp"

#include <utility>

#include "util/assert.hpp"

namespace p2p::core {

const char* algorithm_name(AlgorithmKind kind) noexcept {
  switch (kind) {
    case AlgorithmKind::kBasic: return "Basic";
    case AlgorithmKind::kRegular: return "Regular";
    case AlgorithmKind::kRandom: return "Random";
    case AlgorithmKind::kHybrid: return "Hybrid";
  }
  return "?";
}

bool is_connect_message(MsgType type) noexcept {
  switch (type) {
    case MsgType::kConnectProbe:
    case MsgType::kConnectOffer:
    case MsgType::kConnectRequest:
    case MsgType::kConnectAck:
    case MsgType::kCapture:
    case MsgType::kSlaveRequest:
    case MsgType::kSlaveAccept:
    case MsgType::kSlaveConfirm:
    case MsgType::kSlaveReject:
      return true;
    default:
      return false;
  }
}

bool is_ping_message(MsgType type) noexcept {
  return type == MsgType::kPing || type == MsgType::kPong;
}

Servent::Servent(const ServentContext& ctx, const P2pParams& params,
                 sim::RngStream rng)
    : ctx_(ctx), params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(ctx_.sim != nullptr && ctx_.net != nullptr &&
             ctx_.routing != nullptr && ctx_.flood != nullptr);
  ctx_.routing->set_deliver_handler(
      [this](NodeId src, net::AppPayloadPtr app, int hops) {
        on_aodv_deliver(src, std::move(app), hops);
      });
  ctx_.flood->set_receive_handler(
      [this](NodeId origin, net::AppPayloadPtr app, int hops) {
        on_flood_receive(origin, std::move(app), hops);
      });
}

Servent::~Servent() {
  // Cancel everything we scheduled; the Simulator may outlive us.
  disarm(query_event_);
  for (const NodeId peer : pending_peers_) {
    disarm(pending_req_.find(peer)->timeout);
  }
  for (const NodeId peer : conns_.peers()) {
    Connection* conn = conns_.find(peer);
    disarm(conn->ping_event);
    disarm(conn->timeout_event);
  }
}

void Servent::start() {
  P2P_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  on_start();
  if (params_.enable_queries && placement_ != nullptr) {
    // Desynchronized first queries.
    schedule_next_query(rng_.uniform(0.0, params_.query_gap_max));
  }
}

void Servent::crash() {
  P2P_ASSERT_MSG(started_, "crash() on a stopped servent");
  started_ = false;
  // Silent death: no Bye, no on_connection_closed, no counter bumps — the
  // peers find out through their own maintenance timeouts.
  for (const NodeId peer : conns_.peers()) {
    Connection* conn = conns_.find(peer);
    disarm(conn->ping_event);
    disarm(conn->timeout_event);
    conns_.remove(peer);
  }
  for (const NodeId peer : pending_peers_) {
    disarm(pending_req_.find(peer)->timeout);
  }
  pending_peers_.clear();
  pending_req_.clear();
  disarm(query_event_);
  has_pending_query_ = false;
  // A reborn node must not suppress queries it saw in a previous life;
  // next_query_id_ / next_probe_id_ survive so its new ids stay unique.
  seen_queries_.clear();
  on_crashed();
}

void Servent::rejoin() {
  start();
}

void Servent::set_placement(const content::Placement* placement,
                            std::uint32_t member_index) {
  placement_ = placement;
  member_index_ = member_index;
}

bool Servent::holds(FileId file) const {
  return placement_ != nullptr && placement_->holds(member_index_, file);
}

void Servent::arm(sim::EventId& slot, sim::SimTime delay, sim::EventFn fn) {
  disarm(slot);
  slot = ctx_.sim->after(delay, std::move(fn));
}

void Servent::disarm(sim::EventId& slot) noexcept {
  if (slot != sim::kInvalidEventId) {
    ctx_.sim->cancel(slot);
    slot = sim::kInvalidEventId;
  }
}

int Servent::max_distance_for(ConnKind kind) const {
  switch (kind) {
    case ConnKind::kBasic: return -1;  // Basic checks pong presence only
    case ConnKind::kRandom: return params_.random_maxdist();
    case ConnKind::kRegular:
    case ConnKind::kMaster:
    case ConnKind::kSlave:
      return params_.maxdist;
  }
  return params_.maxdist;
}

// ---------------------------------------------------------------- transport

void Servent::send_msg(NodeId dst, P2pMessagePtr msg) {
  P2P_ASSERT(msg != nullptr);
  counters_.count_sent(msg->type());
  ctx_.routing->send(dst, std::move(msg));
}

void Servent::flood_msg(P2pMessagePtr msg, int hops) {
  P2P_ASSERT(msg != nullptr);
  counters_.count_sent(msg->type());
  ctx_.flood->flood(std::move(msg), hops);
}

// ---------------------------------------------------------------- receive

void Servent::on_aodv_deliver(NodeId src, net::AppPayloadPtr app, int hops) {
  // P2P messages carry their MsgType in the payload kind tag; anything
  // else (foreign app payloads are kUntaggedPayload) is not for us.
  if (app->kind >= static_cast<net::PayloadKind>(kNumMsgTypes)) return;
  const auto* msg = static_cast<const P2pMessage*>(app.get());
  counters_.count_received(msg->type());
  switch (msg->type()) {
    case MsgType::kPing:
      handle_ping(src, hops);
      break;
    case MsgType::kPong:
      handle_pong(src, hops);
      break;
    case MsgType::kBye:
      handle_bye(src);
      break;
    case MsgType::kConnectRequest:
      handle_connect_request(src, static_cast<const ConnectRequest&>(*msg));
      break;
    case MsgType::kConnectAck:
      handle_connect_ack(src, static_cast<const ConnectAck&>(*msg));
      break;
    case MsgType::kQuery:
      handle_query(src, static_cast<const Query&>(*msg));
      break;
    case MsgType::kQueryHit:
      handle_query_hit(src, static_cast<const QueryHit&>(*msg));
      break;
    default:
      handle_control(src, *msg, hops);
      break;
  }
}

void Servent::on_flood_receive(NodeId origin, net::AppPayloadPtr app,
                               int hops) {
  if (app->kind >= static_cast<net::PayloadKind>(kNumMsgTypes)) return;
  const auto* msg = static_cast<const P2pMessage*>(app.get());
  counters_.count_received(msg->type());
  handle_flood(origin, *msg, hops);
}

// ---------------------------------------------------------------- handshake

Servent::PendingRequest* Servent::pending_slot(NodeId peer) noexcept {
  return pending_req_.find(peer);
}

void Servent::erase_pending(NodeId peer) noexcept {
  PendingRequest* slot = pending_req_.find(peer);
  const NodeId moved = pending_peers_.back();
  pending_peers_[slot->order_index] = moved;
  if (moved != peer) {
    pending_req_.find(moved)->order_index = slot->order_index;
  }
  pending_peers_.pop_back();
  pending_req_.erase(peer);
}

void Servent::request_connection(NodeId peer, std::uint64_t probe_id,
                                 ProbeWant want, ConnKind kind) {
  if (peer == self() || conns_.connected(peer) || has_pending_request(peer)) {
    return;
  }
  net::Ref<ConnectRequest> req = ctx_.net->pools().make<ConnectRequest>();
  req.edit()->probe_id = probe_id;
  req.edit()->want = want;
  send_msg(peer, std::move(req));

  PendingRequest& slot = pending_req_.get_or_insert(peer);
  slot.kind = kind;
  slot.order_index = static_cast<std::uint32_t>(pending_peers_.size());
  pending_peers_.push_back(peer);
  arm(slot.timeout, params_.handshake_timeout, [this, peer] {
    PendingRequest* pending = pending_slot(peer);
    if (pending == nullptr) return;
    const ConnKind k = pending->kind;
    pending->timeout = sim::kInvalidEventId;
    erase_pending(peer);
    on_request_failed(peer, k);
  });
}

std::size_t Servent::memory_bytes() const noexcept {
  // std::map node: two child pointers, parent, color + the key/value pair.
  constexpr std::size_t kMapNodeOverhead = 4 * sizeof(void*);
  return pending_req_.memory_bytes() +
         pending_peers_.capacity() * sizeof(NodeId) +
         seen_queries_.memory_bytes() +
         conns_.size() * (kMapNodeOverhead + sizeof(net::NodeId) +
                          sizeof(void*) + sizeof(Connection));
}

std::size_t Servent::pending_requests(ConnKind kind) const {
  std::size_t n = 0;
  for (const NodeId peer : pending_peers_) {
    if (pending_req_.find(peer)->kind == kind) ++n;
  }
  return n;
}

void Servent::handle_connect_request(NodeId src, const ConnectRequest& req) {
  // Responder-side kind: "random" is an *initiator* notion (the reserved
  // slot, the replacement rule, the 2*MAXDIST bound are all evaluated by
  // the node that asked). For the responder an incoming random link is an
  // ordinary symmetric connection occupying a generic slot.
  const ConnKind kind = req.want == ProbeWant::kMaster ? ConnKind::kMaster
                                                       : ConnKind::kRegular;
  net::Ref<ConnectAck> ack = ctx_.net->pools().make<ConnectAck>();
  ack.edit()->probe_id = req.probe_id;
  if (!conns_.connected(src) && can_accept(src, kind)) {
    ack.edit()->accepted = true;
    establish(src, kind, /*initiator=*/false);
    send_msg(src, std::move(ack));
  } else {
    ack.edit()->accepted = false;
    send_msg(src, std::move(ack));
  }
}

void Servent::handle_connect_ack(NodeId src, const ConnectAck& ack) {
  PendingRequest* pending = pending_slot(src);
  if (pending == nullptr) {
    // Stale ack (we gave up); release the slot the peer just reserved.
    if (ack.accepted) send_msg(src, ctx_.net->pools().make<Bye>());
    return;
  }
  const ConnKind kind = pending->kind;
  disarm(pending->timeout);
  erase_pending(src);
  if (!ack.accepted) {
    on_request_failed(src, kind);
    return;
  }
  if (Connection* existing = conns_.find(src)) {
    // Crossed handshakes: both sides probed, offered and requested each
    // other simultaneously, so each installed a responder-side connection
    // while its own request was in flight. Keep the single connection and
    // deterministically pick the pinging side (lower id pings) so exactly
    // one endpoint maintains it — both peers run this same rule.
    const bool we_ping = self() < src;
    if (existing->initiator != we_ping) {
      existing->initiator = we_ping;
      disarm(existing->ping_event);
      disarm(existing->timeout_event);
      if (we_ping) {
        arm(existing->ping_event, params_.ping_interval,
            [this, peer = src] { send_ping(peer); });
      } else {
        arm(existing->timeout_event, params_.silence_timeout,
            [this, peer = src] { maintenance_timeout(peer); });
      }
    }
    return;
  }
  if (!can_initiate(kind)) {
    // Filled up while the handshake was in flight.
    send_msg(src, ctx_.net->pools().make<Bye>());
    on_request_failed(src, kind);
    return;
  }
  Connection& conn = establish(src, kind, /*initiator=*/true);
  on_connection_established(conn);
}

// ---------------------------------------------------------------- lifecycle

Connection& Servent::establish(NodeId peer, ConnKind kind, bool initiator) {
  Connection& conn = conns_.add(peer, kind, initiator, ctx_.sim->now());
  ++connections_established_;
  if (initiator || kind == ConnKind::kBasic) {
    arm(conn.ping_event, params_.ping_interval,
        [this, peer] { send_ping(peer); });
  } else {
    arm(conn.timeout_event, params_.silence_timeout,
        [this, peer] { maintenance_timeout(peer); });
  }
  return conn;
}

void Servent::close_connection(NodeId peer, CloseReason reason,
                               bool notify_peer) {
  Connection* conn = conns_.find(peer);
  if (conn == nullptr) return;
  const ConnKind kind = conn->kind;
  disarm(conn->ping_event);
  disarm(conn->timeout_event);
  conns_.remove(peer);
  ++connections_closed_;
  if (notify_peer) send_msg(peer, ctx_.net->pools().make<Bye>());
  on_connection_closed(peer, kind, reason);
}

// ---------------------------------------------------------------- maintenance

void Servent::send_ping(NodeId peer) {
  Connection* conn = conns_.find(peer);
  if (conn == nullptr) return;
  conn->ping_event = sim::kInvalidEventId;
  send_msg(peer, ctx_.net->pools().make<Ping>());
  arm(conn->timeout_event, params_.pong_timeout,
      [this, peer] { maintenance_timeout(peer); });
}

void Servent::handle_ping(NodeId src, int hops) {
  // Pongs are answered unconditionally — Basic references are asymmetric,
  // so the pinged node generally has no connection state for the pinger.
  send_msg(src, ctx_.net->pools().make<Pong>());
  Connection* conn = conns_.find(src);
  if (conn != nullptr && !conn->initiator) {
    conn->last_heard = ctx_.sim->now();
    conn->last_distance = hops;
    arm(conn->timeout_event, params_.silence_timeout,
        [this, peer = src] { maintenance_timeout(peer); });
  }
}

void Servent::handle_pong(NodeId src, int hops) {
  Connection* conn = conns_.find(src);
  if (conn == nullptr || !(conn->initiator || conn->kind == ConnKind::kBasic)) {
    return;
  }
  conn->last_heard = ctx_.sim->now();
  conn->last_distance = hops;
  disarm(conn->timeout_event);
  const int limit = max_distance_for(conn->kind);
  if (limit >= 0 && hops > limit) {
    // Paper fig. 2: too far -> close (no notification; the peer's silence
    // timeout reclaims its slot).
    close_connection(src, CloseReason::kTooFar, /*notify_peer=*/false);
    return;
  }
  arm(conn->ping_event, params_.ping_interval,
      [this, peer = src] { send_ping(peer); });
}

void Servent::maintenance_timeout(NodeId peer) {
  Connection* conn = conns_.find(peer);
  if (conn == nullptr) return;
  conn->timeout_event = sim::kInvalidEventId;
  const bool we_ping = conn->initiator || conn->kind == ConnKind::kBasic;
  close_connection(peer,
                   we_ping ? CloseReason::kPongTimeout
                           : CloseReason::kSilenceTimeout,
                   /*notify_peer=*/false);
}

void Servent::handle_bye(NodeId src) {
  close_connection(src, CloseReason::kPeerClosed, /*notify_peer=*/false);
}

// ---------------------------------------------------------------- queries

void Servent::schedule_next_query(sim::SimTime delay) {
  arm(query_event_, delay, [this] {
    query_event_ = sim::kInvalidEventId;
    issue_query();
  });
}

void Servent::issue_query() {
  P2P_ASSERT(placement_ != nullptr);
  // Pick the file. Uniform by default so each popularity rank gets equal
  // request samples (what the Fig 5/6 per-rank averages need).
  FileId file;
  if (params_.query_by_popularity) {
    const content::ZipfLaw law(placement_->num_files(), 1.0);
    file = law.sample_by_popularity(rng_);
  } else {
    file = static_cast<FileId>(
        rng_.uniform_int(1, static_cast<std::int64_t>(placement_->num_files())));
  }

  const std::uint64_t qid = next_query_id_++;
  seen_queries_.insert(self(), qid, ctx_.sim->now());
  pending_qid_ = qid;
  pending_query_ = PendingQuery{file, 0, -1, -1};
  has_pending_query_ = true;
  ++queries_sent_;

  net::Ref<Query> query = ctx_.net->pools().make<Query>();
  Query* q = query.edit();
  q->query_id = qid;
  q->origin = self();
  q->file = file;
  q->ttl = static_cast<std::uint8_t>(params_.query_ttl);
  q->p2p_hops = 0;
  for (const NodeId peer : conns_.peers()) {
    send_msg(peer, query);
  }

  // Close the response window after 30 s, then wait 15-45 s more.
  ctx_.sim->after(params_.query_response_wait,
                  [this, qid] { finalize_query(qid); });
}

void Servent::finalize_query(std::uint64_t query_id) {
  if (!has_pending_query_ || pending_qid_ != query_id) return;
  const PendingQuery result = pending_query_;
  has_pending_query_ = false;
  if (recorder_ != nullptr) {
    recorder_->on_request_complete(result.file, result.answers,
                                   result.min_physical, result.min_p2p);
  }
  schedule_next_query(
      rng_.uniform(params_.query_gap_min, params_.query_gap_max));
}

void Servent::handle_query(NodeId src, const Query& query) {
  if (query.origin == self()) return;
  // Rule 1 (§7.2): each node forwards/answers a given query only once.
  if (!seen_queries_.insert(query.origin, query.query_id, ctx_.sim->now())) {
    return;
  }
  const auto hops_here = static_cast<std::uint8_t>(query.p2p_hops + 1);
  if (holds(query.file)) {
    net::Ref<QueryHit> hit = ctx_.net->pools().make<QueryHit>();
    QueryHit* h = hit.edit();
    h->query_id = query.query_id;
    h->file = query.file;
    h->holder = self();
    h->p2p_hops = hops_here;
    // Answers go directly to the requirer (§7.2).
    send_msg(query.origin, std::move(hit));
  }
  // Forward even when we hold the file (§7.2), TTL permitting.
  if (query.ttl <= 1) return;
  net::Ref<Query> fwd = ctx_.net->pools().make_from(query);
  fwd.edit()->ttl = static_cast<std::uint8_t>(query.ttl - 1);
  fwd.edit()->p2p_hops = hops_here;
  for (const NodeId peer : conns_.peers()) {
    // Rules 2 and 3: never back to the sender, never to the origin.
    if (peer == src || peer == query.origin) continue;
    send_msg(peer, fwd);
  }
}

void Servent::handle_query_hit(NodeId /*src*/, const QueryHit& hit) {
  if (!has_pending_query_ || pending_qid_ != hit.query_id) {
    return;  // response window already closed
  }
  PendingQuery& pending = pending_query_;
  ++pending.answers;
  const int phys = ctx_.net->physical_hop_distance(self(), hit.holder);
  if (phys >= 0 &&
      (pending.min_physical < 0 || phys < pending.min_physical)) {
    pending.min_physical = phys;
  }
  const int p2p_hops = int{hit.p2p_hops};
  if (pending.min_p2p < 0 || p2p_hops < pending.min_p2p) {
    pending.min_p2p = p2p_hops;
  }
}

}  // namespace p2p::core
