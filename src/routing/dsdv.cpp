#include "routing/dsdv.hpp"

#include <memory>

#include "sim/rng.hpp"
#include "util/assert.hpp"

namespace p2p::routing {

namespace {
constexpr sim::SimTime kTriggeredUpdateDelay = 0.5;  // batch break notices
}  // namespace

DsdvAgent::DsdvAgent(sim::Simulator& simulator, net::Network& network,
                     NodeId self, const DsdvParams& params)
    : sim_(&simulator),
      net_(&network),
      self_(self),
      params_(params),
      jitter_rng_(sim::splitmix64(0x9d5dULL ^ self)) {
  net_->attach_listener(self_, this);
  schedule_periodic_update();
}

DsdvAgent::~DsdvAgent() {
  if (periodic_event_ != sim::kInvalidEventId) sim_->cancel(periodic_event_);
  if (triggered_event_ != sim::kInvalidEventId) sim_->cancel(triggered_event_);
}

void DsdvAgent::reset() {
  if (triggered_event_ != sim::kInvalidEventId) sim_->cancel(triggered_event_);
  triggered_event_ = sim::kInvalidEventId;
  table_.clear();
}

void DsdvAgent::schedule_periodic_update() {
  const sim::SimTime delay =
      params_.periodic_update_interval +
      jitter_rng_.uniform(0.0, params_.update_jitter);
  periodic_event_ = sim_->after(delay, [this] {
    periodic_event_ = sim::kInvalidEventId;
    broadcast_update(/*full=*/true);
    schedule_periodic_update();
  });
}

void DsdvAgent::schedule_triggered_update() {
  if (triggered_event_ != sim::kInvalidEventId) return;  // already batched
  triggered_event_ = sim_->after(kTriggeredUpdateDelay, [this] {
    triggered_event_ = sim::kInvalidEventId;
    broadcast_update(/*full=*/false);
  });
}

void DsdvAgent::broadcast_update(bool full) {
  if (!net_->alive(self_)) return;  // a dead radio advertises nothing
  DsdvUpdate update;
  update.origin = self_;
  // Own entry first: fresh even sequence number, metric 0.
  own_seq_ += 2;
  update.entries.push_back(DsdvEntry{self_, 0, own_seq_});
  const sim::SimTime now = sim_->now();
  for (auto& [dst, row] : table_) {
    // Stale valid routes expire here rather than via a timer per row.
    if (row.metric != kDsdvInfinity &&
        row.heard + params_.route_stale_timeout <= now) {
      row.metric = kDsdvInfinity;
      row.seq += 1;  // odd: broken, reported with our own authority
      row.changed = true;
    }
    if (full || row.changed) {
      update.entries.push_back(DsdvEntry{dst, row.metric, row.seq});
      row.changed = false;
    }
  }
  if (!full && update.entries.size() <= 1) return;  // nothing to report
  ++stats_.updates_sent;
  stats_.entries_advertised += update.entries.size();
  const std::size_t bytes = dsdv_update_bytes(update);
  net_->broadcast(self_, net_->pools().make_from(std::move(update)), bytes);
}

void DsdvAgent::handle_update(NodeId from, const DsdvUpdate& update) {
  bool changed = false;
  for (const DsdvEntry& entry : update.entries) {
    if (entry.dst == self_) continue;  // we are the authority on ourselves
    const std::uint32_t metric_via =
        entry.metric == kDsdvInfinity ? kDsdvInfinity : entry.metric + 1;
    auto [it, inserted] = table_.emplace(entry.dst, Row{});
    Row& row = it->second;
    const auto newer = static_cast<std::int32_t>(entry.seq - row.seq);
    bool adopt = false;
    if (inserted || newer > 0) {
      adopt = true;
    } else if (newer == 0 && metric_via < row.metric) {
      adopt = true;
    } else if (row.next_hop == from && newer >= 0) {
      // Our current next hop re-advertised (possibly worse): stay honest.
      adopt = true;
    }
    if (adopt) {
      const bool was_usable = row.metric != kDsdvInfinity;
      row.next_hop = from;
      row.metric = metric_via;
      row.seq = entry.seq;
      row.heard = sim_->now();
      if ((row.metric == kDsdvInfinity) != !was_usable || inserted) {
        row.changed = true;
        changed = true;
      }
    }
  }
  // The sender itself is a 1-hop neighbor: its own entry (dst == sender,
  // metric 0) was handled above via metric_via = 1.
  if (changed) schedule_triggered_update();
}

DsdvAgent::Row* DsdvAgent::usable_route(NodeId dst) {
  const auto it = table_.find(dst);
  if (it == table_.end()) return nullptr;
  Row& row = it->second;
  if (row.metric == kDsdvInfinity) return nullptr;
  if (row.heard + params_.route_stale_timeout <= sim_->now()) return nullptr;
  return &row;
}

bool DsdvAgent::has_route(NodeId dst) { return usable_route(dst) != nullptr; }

int DsdvAgent::route_hops(NodeId dst) {
  const Row* row = usable_route(dst);
  return row == nullptr ? -1 : static_cast<int>(row->metric);
}

void DsdvAgent::send(NodeId dst, net::AppPayloadPtr app) {
  P2P_ASSERT(dst != self_);
  DataMsg data;
  data.src = self_;
  data.dst = dst;
  data.hops_traveled = 0;
  data.app = std::move(app);
  route_data(std::move(data));
}

void DsdvAgent::handle_link_break(NodeId next_hop) {
  bool changed = false;
  for (auto& [dst, row] : table_) {
    if (row.metric != kDsdvInfinity && row.next_hop == next_hop) {
      row.metric = kDsdvInfinity;
      row.seq += 1;  // odd sequence: link-break authority
      row.changed = true;
      changed = true;
    }
  }
  if (changed) schedule_triggered_update();
}

void DsdvAgent::route_data(DataMsg data) {
  if (data.dst == self_) {
    ++stats_.data_delivered;
    if (on_deliver_) {
      on_deliver_(data.src, std::move(data.app), int{data.hops_traveled});
    }
    return;
  }
  Row* row = usable_route(data.dst);
  if (row == nullptr) {
    ++stats_.data_dropped;  // proactive protocol: no discovery to fall back on
    return;
  }
  if (!net_->in_range(self_, row->next_hop)) {
    handle_link_break(row->next_hop);
    ++stats_.data_dropped;
    return;
  }
  if (data.src != self_) ++stats_.data_forwarded;
  const std::size_t bytes = data_bytes(data);
  net_->unicast(self_, row->next_hop,
                net_->pools().make_from(std::move(data)), bytes);
}

void DsdvAgent::on_frame(const net::Frame& frame) {
  switch (static_cast<FrameKind>(frame.payload->kind)) {
    case FrameKind::kDsdvUpdate:
      handle_update(frame.sender,
                    *static_cast<const DsdvUpdate*>(frame.payload.get()));
      break;
    case FrameKind::kData: {
      if (frame.link_dst != self_) break;
      DataMsg copy = *static_cast<const DataMsg*>(frame.payload.get());
      copy.hops_traveled = static_cast<std::uint8_t>(copy.hops_traveled + 1);
      route_data(std::move(copy));
      break;
    }
    default:
      break;
  }
}

}  // namespace p2p::routing
