#include "core/hybrid.hpp"

namespace p2p::core {

void HybridServent::on_start() { schedule_tick(0.0); }

void HybridServent::schedule_tick(sim::SimTime delay) {
  if (tick_event_ != sim::kInvalidEventId) return;
  arm(tick_event_, delay, [this] {
    tick_event_ = sim::kInvalidEventId;
    tick();
  });
}

void HybridServent::tick() {
  switch (state_) {
    case HybridState::kInitial:
      initial_tick();
      break;
    case HybridState::kMaster:
      master_tick();
      break;
    case HybridState::kSlave:
    case HybridState::kReserved:
      break;  // passive states; events re-arm ticks on transition
  }
}

// ------------------------------------------------------------- INITIAL

void HybridServent::initial_tick() {
  const ProgressiveSearch::Step step = search_.advance();
  if (step.flood_hops == 0) {
    // "if this limit exceeds MAXNHOPS, then the peer entitles itself a
    // master" (fig. 4: nhops == 0 -> MASTER).
    become_master();
    return;
  }
  net::Ref<Capture> capture = network().pools().make<Capture>();
  capture.edit()->qualifier = qualifier_;
  flood_msg(std::move(capture), step.flood_hops);
  schedule_tick(step.wait);
}

void HybridServent::handle_capture(NodeId src, std::uint32_t their_qualifier) {
  if (src == self()) return;
  switch (state_) {
    case HybridState::kInitial:
      if (!outranks(their_qualifier, src)) {
        // They are stronger: try to become their slave.
        net::Ref<SlaveRequest> req = network().pools().make<SlaveRequest>();
        req.edit()->qualifier = qualifier_;
        send_msg(src, std::move(req));
        state_ = HybridState::kReserved;
        master_candidate_ = src;
        disarm(tick_event_);
        arm(reserve_timeout_, params().handshake_timeout, [this] {
          reserve_timeout_ = sim::kInvalidEventId;
          if (state_ == HybridState::kReserved) {
            state_ = HybridState::kInitial;
            master_candidate_ = net::kInvalidNode;
            schedule_tick(0.01);
          }
        });
      } else {
        // We are stronger: invite them by answering with our capture
        // ("if the qualifier of the receiver is bigger and its state is
        // either initial or master, it responds with a capture message").
        net::Ref<Capture> capture = network().pools().make<Capture>();
        capture.edit()->qualifier = qualifier_;
        send_msg(src, std::move(capture));
      }
      break;
    case HybridState::kMaster:
      if (outranks(their_qualifier, src)) {
        net::Ref<Capture> capture = network().pools().make<Capture>();
        capture.edit()->qualifier = qualifier_;
        send_msg(src, std::move(capture));
      }
      break;
    case HybridState::kSlave:
    case HybridState::kReserved:
      // "peers in slave or reserved state don't communicate with any one
      // else, except their masters or master candidates".
      break;
  }
}

void HybridServent::handle_slave_request(NodeId src,
                                         std::uint32_t their_qualifier) {
  const bool has_capacity =
      slave_count() + slave_reservations_.size() <
      static_cast<std::size_t>(params().maxnslaves);
  const bool eligible = (state_ == HybridState::kMaster ||
                         state_ == HybridState::kInitial) &&
                        outranks(their_qualifier, src) && has_capacity &&
                        !conns().connected(src);
  if (!eligible) {
    send_msg(src, network().pools().make<SlaveReject>());
    return;
  }
  if (state_ == HybridState::kInitial) become_master();
  // Reserve the slot until the candidate confirms.
  auto [it, inserted] =
      slave_reservations_.emplace(src, sim::kInvalidEventId);
  if (inserted) {
    arm(it->second, params().handshake_timeout,
        [this, src] { slave_reservations_.erase(src); });
  }
  send_msg(src, network().pools().make<SlaveAccept>());
}

void HybridServent::handle_slave_accept(NodeId src) {
  if (state_ != HybridState::kReserved || master_candidate_ != src) return;
  disarm(reserve_timeout_);
  master_candidate_ = net::kInvalidNode;
  state_ = HybridState::kSlave;
  disarm(tick_event_);
  establish(src, ConnKind::kSlave, /*initiator=*/true);
  send_msg(src, network().pools().make<SlaveConfirm>());
}

void HybridServent::handle_slave_confirm(NodeId src) {
  const auto it = slave_reservations_.find(src);
  if (it == slave_reservations_.end()) return;  // reservation expired
  disarm(it->second);
  slave_reservations_.erase(it);
  if (state_ != HybridState::kMaster || conns().connected(src)) return;
  establish(src, ConnKind::kSlave, /*initiator=*/false);
  disarm(no_slave_event_);  // we own a slave now
}

void HybridServent::handle_slave_reject(NodeId src) {
  if (state_ != HybridState::kReserved || master_candidate_ != src) return;
  disarm(reserve_timeout_);
  master_candidate_ = net::kInvalidNode;
  state_ = HybridState::kInitial;
  schedule_tick(0.01);
}

// ------------------------------------------------------------- MASTER

void HybridServent::become_master() {
  state_ = HybridState::kMaster;
  search_.reset();
  arm_no_slave_watchdog();
  schedule_tick(0.0);
}

void HybridServent::arm_no_slave_watchdog() {
  arm(no_slave_event_, params().maxtimer_master, [this] {
    no_slave_event_ = sim::kInvalidEventId;
    if (state_ == HybridState::kMaster && slave_count() == 0) {
      revert_to_initial();
    }
  });
}

void HybridServent::on_crashed() {
  // Base already dropped the connection table; only the state machine's
  // own events and bookkeeping remain. Silent — no Bye, no close hooks.
  disarm(tick_event_);
  disarm(reserve_timeout_);
  disarm(no_slave_event_);
  for (auto& [peer, event] : slave_reservations_) disarm(event);
  slave_reservations_.clear();
  master_probes_.clear();
  master_candidate_ = net::kInvalidNode;
  state_ = HybridState::kInitial;
  search_.reset();
}

void HybridServent::revert_to_initial() {
  disarm(no_slave_event_);
  for (const NodeId peer : conns().peers_of_kind(ConnKind::kMaster)) {
    close_connection(peer, CloseReason::kLocalDecision, /*notify_peer=*/true);
  }
  for (const NodeId peer : conns().peers_of_kind(ConnKind::kSlave)) {
    close_connection(peer, CloseReason::kLocalDecision, /*notify_peer=*/true);
  }
  for (auto& [peer, event] : slave_reservations_) disarm(event);
  slave_reservations_.clear();
  state_ = HybridState::kInitial;
  search_.reset();
  schedule_tick(0.01);
}

void HybridServent::master_tick() {
  const std::size_t held = conns().count(ConnKind::kMaster);
  const std::size_t in_flight = pending_requests(ConnKind::kMaster);
  const auto target = static_cast<std::size_t>(params().maxnconn);
  if (held + in_flight >= target) {
    schedule_tick(params().maxtimer);  // slow heartbeat
    return;
  }
  // Sweep expired probe records so the map stays tiny.
  for (auto it = master_probes_.begin(); it != master_probes_.end();) {
    it = it->second <= sim().now() ? master_probes_.erase(it) : std::next(it);
  }
  const ProgressiveSearch::Step step = search_.advance();
  if (step.flood_hops > 0) {
    net::Ref<ConnectProbe> probe = network().pools().make<ConnectProbe>();
    probe.edit()->probe_id = new_probe_id();
    probe.edit()->want = ProbeWant::kMaster;
    master_probes_[probe->probe_id] =
        sim().now() + params().offer_window + params().handshake_timeout;
    flood_msg(std::move(probe), step.flood_hops);
  }
  schedule_tick(step.wait > 0.0 ? step.wait : 0.01);
}

// ------------------------------------------------------------- dispatch

void HybridServent::handle_flood(NodeId origin, const P2pMessage& msg,
                                 int hops) {
  switch (msg.type()) {
    case MsgType::kCapture:
      handle_capture(origin, static_cast<const Capture&>(msg).qualifier);
      break;
    case MsgType::kConnectProbe: {
      const auto& probe = static_cast<const ConnectProbe&>(msg);
      // "use the regular algorithm to contact other masters": only
      // masters with spare master-link capacity answer master probes.
      if (probe.want != ProbeWant::kMaster) break;
      if (state_ != HybridState::kMaster) break;
      if (conns().connected(origin) || has_pending_request(origin)) break;
      if (conns().count(ConnKind::kMaster) >=
          static_cast<std::size_t>(params().maxnconn)) {
        break;
      }
      net::Ref<ConnectOffer> offer = network().pools().make<ConnectOffer>();
      offer.edit()->probe_id = probe.probe_id;
      offer.edit()->hop_distance = static_cast<std::uint8_t>(hops);
      send_msg(origin, std::move(offer));
      break;
    }
    default:
      break;
  }
}

void HybridServent::handle_control(NodeId src, const P2pMessage& msg,
                                   int /*hops*/) {
  switch (msg.type()) {
    case MsgType::kCapture:
      handle_capture(src, static_cast<const Capture&>(msg).qualifier);
      break;
    case MsgType::kSlaveRequest:
      handle_slave_request(src,
                           static_cast<const SlaveRequest&>(msg).qualifier);
      break;
    case MsgType::kSlaveAccept:
      handle_slave_accept(src);
      break;
    case MsgType::kSlaveConfirm:
      handle_slave_confirm(src);
      break;
    case MsgType::kSlaveReject:
      handle_slave_reject(src);
      break;
    case MsgType::kConnectOffer: {
      if (state_ != HybridState::kMaster) break;
      const auto& offer = static_cast<const ConnectOffer&>(msg);
      const auto it = master_probes_.find(offer.probe_id);
      if (it == master_probes_.end() || it->second <= sim().now()) break;
      if (conns().count(ConnKind::kMaster) +
              pending_requests(ConnKind::kMaster) <
          static_cast<std::size_t>(params().maxnconn)) {
        request_connection(src, offer.probe_id, ProbeWant::kMaster,
                           ConnKind::kMaster);
      }
      break;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------- hooks

void HybridServent::on_connection_established(Connection& /*conn*/) {
  search_.on_connection_established();
}

void HybridServent::on_connection_closed(NodeId /*peer*/, ConnKind kind,
                                         CloseReason /*reason*/) {
  if (kind == ConnKind::kSlave) {
    if (state_ == HybridState::kSlave) {
      // Lost our master (timeout or too far): start over.
      state_ = HybridState::kInitial;
      search_.reset();
      schedule_tick(0.01);
    } else if (state_ == HybridState::kMaster && slave_count() == 0) {
      arm_no_slave_watchdog();
    }
  } else if (kind == ConnKind::kMaster && state_ == HybridState::kMaster) {
    schedule_tick(0.01);
  }
}

void HybridServent::on_request_failed(NodeId /*peer*/, ConnKind kind) {
  if (kind == ConnKind::kMaster && state_ == HybridState::kMaster) {
    schedule_tick(0.01);
  }
}

bool HybridServent::can_accept(NodeId /*from*/, ConnKind kind) const {
  // Only master<->master links use the symmetric handshake here.
  return kind == ConnKind::kMaster && state_ == HybridState::kMaster &&
         conns().count(ConnKind::kMaster) <
             static_cast<std::size_t>(params().maxnconn);
}

bool HybridServent::can_initiate(ConnKind kind) const {
  return kind == ConnKind::kMaster && state_ == HybridState::kMaster &&
         conns().count(ConnKind::kMaster) <
             static_cast<std::size_t>(params().maxnconn);
}

}  // namespace p2p::core
