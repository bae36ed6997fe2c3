#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace p2p::net {

Network::Network(sim::Simulator& simulator, const NetworkParams& params,
                 sim::RngStream mac_rng)
    : params_(params),
      base_(&simulator, std::move(mac_rng)),
      index_(params.region, params.range, params.index_tolerance_s,
             params.max_speed_hint) {}

NodeId Network::add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                         const EnergyParams& energy) {
  P2P_ASSERT(mobility != nullptr);
  NodeState state;
  state.mobility = std::move(mobility);
  state.energy = EnergyModel(energy);
  nodes_.push_back(std::move(state));
  legs_.emplace_back();  // until = -inf: fetched on the first sample
  down_.push_back(0);
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  refresh_down(id);  // a zero-capacity battery is dead on arrival
  return id;
}

void Network::attach_listener(NodeId id, LinkListener* listener) {
  P2P_ASSERT(id < nodes_.size());
  P2P_ASSERT(listener != nullptr);
  nodes_[id].listeners.push_back(listener);
}

geo::Vec2 Network::position_of(NodeId id) {
  // Keyed to the *global* clock — forbidden inside a shard window (shard
  // lanes read the index's cached positions; see lane_position).
  P2P_DASSERT(tls_lane_ == nullptr);
  P2P_ASSERT(id < nodes_.size());
  return sample_position_at(id, base_.sim->now());
}

// ---- lane-keyed model points: positions, liveness, receiver routing ----
// refresh_for_scan, settle_liveness and to_outbox are `inline` so the base
// lane pays a predictable branch, not a call, per transmission or
// receiver. The shard side of each is [[unlikely]] so the base lane's code
// is laid out first; to_outbox's queueing half stays out of line.
//
// lane_position and sample_position_at (the leg cache behind position_of)
// stay out of line so that a position comes back in two registers.
// Inlined into a caller, GCC (-O2) merges the two position sources as one
// 16-byte value through the stack: two 8-byte stores, then a 16-byte
// reload that stalls on store-to-load forwarding, once per sampled
// position (docs/performance.md, "PR 25").

[[gnu::noinline]] geo::Vec2 Network::lane_position(const Lane& lane,
                                                   NodeId id) {
  if (on_shard(lane)) [[unlikely]] {
    return index_.cached_position(id);
  }
  return position_of(id);
}

inline void Network::refresh_for_scan(const Lane& lane) {
  // Sharded windows refresh the index at begin_window only: the barrier
  // instant is the one sharded-mode point that may touch mobility models.
  if (on_shard(lane)) [[unlikely]] {
    return;
  }
  refresh_index(lane.sim->now());
}

inline void Network::settle_liveness(Lane& lane, NodeId id) {
  if (on_shard(lane)) [[unlikely]] {
    // down_ is read-only while shards run; queue the flip for the barrier.
    if (down_[id] == 0 && !nodes_[id].energy.alive()) {
      lane.pending_down.push_back(id);
    }
    return;
  }
  refresh_down(id);
}

inline bool Network::to_outbox(Lane& lane, NodeId receiver,
                               const Frame& frame, sim::SimTime arrival) {
  if (on_shard(lane)) [[unlikely]] {
    const std::uint32_t dst = home_shard_[receiver];
    if (dst == home_shard_[frame.sender]) return false;
    queue_in_outbox(lane, dst, receiver, frame, arrival);
    return true;
  }
  return false;
}

void Network::queue_in_outbox(Lane& lane, std::uint32_t dst, NodeId receiver,
                              const Frame& frame, sim::SimTime arrival) {
  // Group into one slot per destination shard (tx_out is the transmission's
  // dst -> slot map; a broadcast touches at most the 3x3 cell block, so a
  // handful of shards). Each slot parks one payload reference (same-lane
  // Ref copy); the barrier clones it into the destination lane's pools.
  for (const auto& [d, slot] : lane.tx_out) {
    if (d == dst) {
      lane.outbox[slot].receivers.push_back(receiver);
      return;
    }
  }
  if (lane.outbox_used == lane.outbox.size()) lane.outbox.emplace_back();
  const auto slot = static_cast<std::uint32_t>(lane.outbox_used++);
  OutMsg& msg = lane.outbox[slot];
  msg.arrival = arrival;
  msg.dst_shard = dst;
  msg.sender = frame.sender;
  msg.link_dst = frame.link_dst;
  msg.size_bytes = frame.size_bytes;
  msg.payload = frame.payload;
  msg.receivers.push_back(receiver);
  lane.tx_out.emplace_back(dst, slot);
}

void Network::set_failed(NodeId id, bool failed) {
  P2P_ASSERT(id < nodes_.size());
  nodes_[id].failed = failed;
  refresh_down(id);
}

void Network::purge_expired_blackouts() {
  const sim::SimTime now = base_.sim->now();
  blackout_map_.erase_if(
      [now](std::uint64_t, sim::SimTime end) { return end <= now; });
  blackout_purge_at_ = std::max<std::size_t>(64, blackout_map_.size() * 2);
}

void Network::set_link_blackout(NodeId a, NodeId b, sim::SimTime until) {
  P2P_DASSERT(tls_lane_ == nullptr);  // ledger writes happen between windows
  P2P_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b);
  if (blackout_map_.size() >= blackout_purge_at_) purge_expired_blackouts();
  sim::SimTime& end = blackout_map_.get_or_insert(link_key(a, b));
  if (until > end) end = until;
}

bool Network::link_blacked_out(const Lane& lane, NodeId a, NodeId b) const {
  // Ledger holds only links that were actually suppressed; absent means
  // never blacked out. Written only between windows, so shards read it
  // race-free.
  if (blackout_map_.empty()) return false;
  const sim::SimTime* end = blackout_map_.find(link_key(a, b));
  return end != nullptr && *end > lane.sim->now();
}

bool Network::link_usable(NodeId a, NodeId b) {
  if (!alive(a) || !alive(b)) return false;
  return in_range(a, b) && !link_blacked_out(lane(), a, b);
}

bool Network::channel_lost(sim::RngStream& rng, geo::Vec2 from,
                           geo::Vec2 to) {
  double loss_p = params_.mac.loss_probability;
  // Only global events write burst_loss_, so windows read it race-free.
  if (burst_loss_ > 0.0) loss_p = 1.0 - (1.0 - loss_p) * (1.0 - burst_loss_);
  bool lost = loss_p > 0.0 && rng.chance(loss_p);
  if (!lost && params_.mac.gray_zone_fraction > 0.0) {
    const double dist = geo::distance(from, to);
    lost = !rng.chance(
        gray_zone_delivery_probability(params_.mac, dist, params_.range));
  }
  return lost;
}

EnergyModel& Network::energy(NodeId id) {
  P2P_ASSERT(id < nodes_.size());
  return nodes_[id].energy;
}

const EnergyModel& Network::energy(NodeId id) const {
  P2P_ASSERT(id < nodes_.size());
  return nodes_[id].energy;
}

bool Network::in_range(NodeId a, NodeId b) {
  P2P_ASSERT(a < nodes_.size() && b < nodes_.size());
  if (a == b) return true;
  const Lane& lane = this->lane();
  const double r2 = params_.range * params_.range;
  return geo::distance2(lane_position(lane, a), lane_position(lane, b)) <= r2;
}

void Network::refresh_index(sim::SimTime t) {
  index_.refresh(t, nodes_.size(),
                 [&](NodeId id) { return sample_position_at(id, t); });
}

void Network::neighbors_of(NodeId id, std::vector<NodeId>* out) {
  P2P_ASSERT(id < nodes_.size());
  P2P_ASSERT(out != nullptr);
  const sim::SimTime now = base_.sim->now();
  refresh_index(now);
  const geo::Vec2 sp = position_of(id);  // sampled once, reused below
  index_.candidates_near(sp, now, &base_.scratch_candidates);
  out->clear();
  const double r2 = params_.range * params_.range;
  for (const NodeId cand : base_.scratch_candidates) {
    if (cand == id || !alive(cand)) continue;
    if (geo::distance2(sp, position_of(cand)) <= r2) {
      out->push_back(cand);
    }
  }
}

std::vector<std::vector<NodeId>> Network::adjacency_snapshot() {
  P2P_DASSERT(tls_lane_ == nullptr);  // global-clock snapshot, barrier-only
  const sim::SimTime now = base_.sim->now();
  std::vector<std::vector<NodeId>> adj(nodes_.size());
  refresh_index(now);
  // An exact snapshot: every distance uses positions sampled at this
  // instant, not the index's.
  const double r2 = params_.range * params_.range;
  std::vector<NodeId>& cands = base_.scratch_candidates;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!alive(i)) continue;
    const geo::Vec2 pi = position_of(i);
    index_.candidates_near(pi, now, &cands);
    for (const NodeId j : cands) {
      if (j <= i || !alive(j)) continue;
      if (geo::distance2(pi, position_of(j)) <= r2) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  return adj;
}

int Network::grid_hop_distance(Lane& lane, NodeId a, NodeId b) {
  // Same edge relation as adjacency_snapshot() (alive endpoints, positions
  // within range, candidates_near being a guaranteed superset within the
  // drift margin), and the BFS distance is unique, so the result equals a
  // BFS over the snapshot — without paying O(n * k) to materialize every
  // row for one source/target pair.
  const std::size_t n = nodes_.size();
  if (lane.grid_stamp.size() < n) {
    lane.grid_stamp.resize(n, 0);
    lane.grid_dist.resize(n);
  }
  const std::uint64_t gen = ++lane.grid_gen;
  const sim::SimTime now = lane.sim->now();
  const double r2 = params_.range * params_.range;
  lane.grid_queue.clear();
  lane.grid_queue.push_back(a);
  lane.grid_stamp[a] = gen;
  lane.grid_dist[a] = 0;
  for (std::size_t head = 0; head < lane.grid_queue.size(); ++head) {
    const NodeId u = lane.grid_queue[head];
    const int du = lane.grid_dist[u];
    const geo::Vec2 up = lane_position(lane, u);
    index_.candidates_near(up, now, &lane.grid_cand);
    for (const NodeId v : lane.grid_cand) {
      if (lane.grid_stamp[v] == gen || v == u || !alive(v)) continue;
      if (geo::distance2(up, lane_position(lane, v)) > r2) continue;
      if (v == b) return du + 1;
      lane.grid_stamp[v] = gen;
      lane.grid_dist[v] = du + 1;
      lane.grid_queue.push_back(v);
    }
  }
  return graph::kUnreachable;
}

int Network::physical_hop_distance(NodeId a, NodeId b) {
  const std::size_t n = nodes_.size();
  if (a >= n || b >= n) return graph::kUnreachable;
  if (a == b) return 0;
  if (!alive(a) || !alive(b)) return graph::kUnreachable;
  Lane& lane = this->lane();
  // After the early returns: index rebuild time sets candidate order, and
  // candidate order sets MAC draw order.
  refresh_for_scan(lane);
  return grid_hop_distance(lane, a, b);
}

sim::SimTime Network::schedule_tx(Lane& lane, NodeState& node,
                                  double duration) {
  const sim::SimTime defer =
      lane.mac_rng.uniform(0.0, params_.mac.jitter_max_s);
  sim::SimTime start = lane.sim->now() + defer;
  if (start < node.next_free_tx) start = node.next_free_tx;
  node.next_free_tx = start + duration;
  return start;
}

void Network::deliver(Lane& lane, NodeId receiver, const Frame& frame) {
  // Liveness is tested before the receive is charged, so the frame whose
  // receive cost empties a battery still reaches the listeners. Inside a
  // window the flip waits for the barrier (settle_liveness): liveness is
  // the window-start snapshot, part of the deterministic sharded model.
  NodeState& node = nodes_[receiver];
  if (!alive(receiver)) {
    if (observer_ != nullptr) {
      observer_->on_drop(lane.sim->now(), frame.sender, receiver,
                         frame.size_bytes);
    }
    return;
  }
  node.energy.consume_rx(frame.size_bytes);
  settle_liveness(lane, receiver);
  ++lane.frames_rx;
  if (observer_ != nullptr) {
    observer_->on_deliver(lane.sim->now(), receiver, frame.sender,
                          frame.size_bytes);
  }
  for (LinkListener* listener : node.listeners) listener->on_frame(frame);
}

std::uint32_t Network::acquire_batch(Lane& lane) {
  if (!lane.free_batches.empty()) {
    const std::uint32_t batch = lane.free_batches.back();
    lane.free_batches.pop_back();
    return batch;
  }
  lane.batch_pool.emplace_back();
  return static_cast<std::uint32_t>(lane.batch_pool.size() - 1);
}

void Network::release_batch(Lane& lane, std::uint32_t batch) {
  lane.batch_pool[batch].clear();  // keeps capacity for the next storm
  lane.free_batches.push_back(batch);
}

void Network::deliver_batch(Lane& lane, std::uint32_t batch,
                            const Frame& frame) {
  // Receivers were filtered (range, liveness, channel) at transmit time;
  // liveness is re-checked per delivery inside deliver() because an
  // earlier delivery in this very batch can kill a later receiver.
  // Index on every access: a delivery handler may broadcast, growing the
  // pool vector (a different batch index, but possibly reallocating).
  for (std::size_t i = 0; i < lane.batch_pool[batch].size(); ++i) {
    deliver(lane, lane.batch_pool[batch][i], frame);
  }
  release_batch(lane, batch);
}

void Network::broadcast(NodeId sender, FramePayloadPtr payload,
                        std::size_t bytes) {
  P2P_ASSERT(sender < nodes_.size());
  if (!alive(sender)) return;
  Lane& lane = this->lane();
  NodeState& node = nodes_[sender];
  node.energy.consume_tx(bytes);
  settle_liveness(lane, sender);  // tx cost may have emptied the battery
  ++lane.frames_tx;
  const sim::SimTime now = lane.sim->now();
  if (observer_ != nullptr) {
    observer_->on_transmit(now, sender, kBroadcast, bytes);
  }

  refresh_for_scan(lane);
  const geo::Vec2 sender_pos = lane_position(lane, sender);
  index_.candidates_near(sender_pos, now, &lane.scratch_candidates);
  const double duration = tx_duration(params_.mac, bytes);
  const sim::SimTime start = schedule_tx(lane, node, duration);  // jitter
  const sim::SimTime arrival = start + duration + kPropagationDelayS;

  // One pass over the spatial-index candidates: range filter + channel
  // draws, in candidate order. This is the exact receiver order — and the
  // exact mac draw order — the per-receiver-event baseline used, so
  // runs stay bit-identical (asserted by Network.BatchedBroadcastMatches*
  // and the golden fig07 test).
  const double r2 = params_.range * params_.range;
  Frame frame{sender, kBroadcast, bytes, std::move(payload)};
  const std::uint32_t batch = acquire_batch(lane);
  lane.tx_out.clear();
  for (const NodeId cand : lane.scratch_candidates) {
    if (cand == sender || !alive(cand)) continue;
    const geo::Vec2 rp = lane_position(lane, cand);
    if (geo::distance2(sender_pos, rp) > r2) continue;
    // A blacked-out link behaves like out-of-range: silently skipped, no
    // channel draws (keeps draw order fault-free-identical).
    if (link_blacked_out(lane, sender, cand)) continue;
    if (channel_lost(lane.mac_rng, sender_pos, rp)) {
      ++lane.frames_lost;
      if (observer_ != nullptr) observer_->on_drop(now, sender, cand, bytes);
      continue;
    }
    if (to_outbox(lane, cand, frame, arrival)) continue;
    lane.batch_pool[batch].push_back(cand);
  }
  if (lane.batch_pool[batch].empty()) {
    release_batch(lane, batch);
    return;
  }

  // ONE arrival event per transmission, carrying the surviving receiver
  // list by pool index and the frame by move: no per-receiver closure,
  // no payload refcount churn. Survivors are delivered in receiver order,
  // which equals the old contiguous FIFO-tied per-receiver event order.
  // The event runs on the lane that scheduled it, so lane() is that lane.
  lane.sim->at(arrival, [this, batch, frame = std::move(frame)] {
    deliver_batch(this->lane(), batch, frame);
  });
}

void Network::unicast(NodeId sender, NodeId neighbor, FramePayloadPtr payload,
                      std::size_t bytes) {
  P2P_ASSERT(sender < nodes_.size());
  P2P_ASSERT(neighbor < nodes_.size());
  if (!alive(sender)) return;
  Lane& lane = this->lane();
  NodeState& node = nodes_[sender];
  node.energy.consume_tx(bytes);
  settle_liveness(lane, sender);  // tx cost may have emptied the battery
  ++lane.frames_tx;
  const sim::SimTime now = lane.sim->now();
  if (observer_ != nullptr) {
    observer_->on_transmit(now, sender, neighbor, bytes);
  }

  // in_range's rule on positions read once for the range test and the
  // channel draw alike.
  bool lost = !alive(neighbor);
  if (!lost) {
    const geo::Vec2 from = lane_position(lane, sender);
    const geo::Vec2 to = lane_position(lane, neighbor);
    lost = geo::distance2(from, to) > params_.range * params_.range ||
           link_blacked_out(lane, sender, neighbor) ||
           channel_lost(lane.mac_rng, from, to);
  }
  if (lost) {
    ++lane.frames_lost;
    if (observer_ != nullptr) observer_->on_drop(now, sender, neighbor, bytes);
    return;
  }
  const double duration = tx_duration(params_.mac, bytes);
  const sim::SimTime start = schedule_tx(lane, node, duration);
  const sim::SimTime arrival = start + duration + kPropagationDelayS;
  Frame frame{sender, neighbor, bytes, std::move(payload)};
  lane.tx_out.clear();
  if (to_outbox(lane, neighbor, frame, arrival)) return;
  lane.sim->at(arrival, [this, neighbor, frame = std::move(frame)] {
    deliver(this->lane(), neighbor, frame);
  });
}

std::size_t Network::lane_bytes(const Lane& lane) noexcept {
  std::size_t bytes = lane.scratch_candidates.capacity() * sizeof(NodeId) +
                      lane.free_batches.capacity() * sizeof(std::uint32_t) +
                      lane.outbox.capacity() * sizeof(OutMsg) +
                      lane.tx_out.capacity() * sizeof(lane.tx_out[0]) +
                      lane.pending_down.capacity() * sizeof(NodeId) +
                      lane.grid_stamp.capacity() * sizeof(std::uint64_t) +
                      lane.grid_dist.capacity() * sizeof(int) +
                      lane.grid_queue.capacity() * sizeof(NodeId) +
                      lane.grid_cand.capacity() * sizeof(NodeId) +
                      lane.batch_pool.capacity() * sizeof(lane.batch_pool[0]);
  for (const auto& batch : lane.batch_pool) {
    bytes += batch.capacity() * sizeof(NodeId);
  }
  for (const OutMsg& msg : lane.outbox) {
    bytes += msg.receivers.capacity() * sizeof(NodeId);
  }
  return bytes;
}

std::size_t Network::memory_bytes() const noexcept {
  std::size_t bytes = nodes_.capacity() * sizeof(NodeState) +
                      legs_.capacity() * sizeof(mobility::Leg) +
                      down_.capacity() * sizeof(std::uint8_t) +
                      index_.memory_bytes() +
                      blackout_map_.memory_bytes();
  for (const auto& node : nodes_) {
    bytes += node.listeners.capacity() * sizeof(LinkListener*);
  }
  for_each_lane([&](const Lane& lane) { bytes += lane_bytes(lane); });
  return bytes;
}

// ---- sharded (conservative parallel) execution ----------------------------

void Network::enable_sharding(std::vector<sim::Simulator*> shard_sims,
                              std::vector<std::uint32_t> home_shard,
                              std::vector<sim::RngStream> mac_rngs) {
  P2P_ASSERT_MSG(lanes_.empty(), "sharding already enabled");
  P2P_ASSERT_MSG(shard_sims.size() >= 2, "sharding needs >= 2 shards");
  P2P_ASSERT(shard_sims.size() == mac_rngs.size());
  P2P_ASSERT(home_shard.size() == nodes_.size());
  P2P_ASSERT_MSG(observer_ == nullptr, "observer incompatible with sharding");
  P2P_ASSERT_MSG(base_.frames_tx == 0 && base_.frames_rx == 0,
                 "enable_sharding must precede any traffic");
  for (const std::uint32_t s : home_shard) {
    P2P_ASSERT(s < shard_sims.size());
  }
  lanes_.reserve(shard_sims.size());
  for (std::size_t s = 0; s < shard_sims.size(); ++s) {
    P2P_ASSERT(shard_sims[s] != nullptr);
    lanes_.emplace_back(shard_sims[s], std::move(mac_rngs[s]));
  }
  home_shard_ = std::move(home_shard);
}

void Network::enter_shard(std::size_t shard) noexcept {
  P2P_DASSERT(shard < lanes_.size());
  tls_lane_ = &lanes_[shard];
}

void Network::exit_shard() noexcept { tls_lane_ = nullptr; }

void Network::begin_window(sim::SimTime start, sim::SimTime /*end*/) {
  P2P_ASSERT(!lanes_.empty());
  refresh_index(start);
}

void Network::end_window(sim::SimTime /*end*/) {
  // Drain outboxes in fixed shard order 0..S-1, slots in emission order:
  // together with per-shard sequential execution inside the window this
  // makes every destination queue's (time, seq) order a pure function of
  // the model — identical for any thread count.
  for (std::size_t src = 0; src < lanes_.size(); ++src) {
    Lane& lane = lanes_[src];
    for (std::size_t i = 0; i < lane.outbox_used; ++i) {
      OutMsg& msg = lane.outbox[i];
      Lane& dst = lanes_[msg.dst_shard];
      FramePayloadPtr clone = dst.pools->copy_of(*msg.payload);
      const std::uint32_t batch = acquire_batch(dst);
      dst.batch_pool[batch].assign(msg.receivers.begin(), msg.receivers.end());
      Frame frame{msg.sender, msg.link_dst, msg.size_bytes, std::move(clone)};
      dst.sim->at(msg.arrival, [this, batch, frame = std::move(frame)] {
        deliver_batch(this->lane(), batch, frame);
      });
      msg.payload = FramePayloadPtr();  // back to the source lane's pool
      msg.receivers.clear();            // slot recycles with its capacity
    }
    lane.outbox_used = 0;
  }
  // Apply battery deaths deferred from inside the windows (duplicates are
  // harmless — refresh_down is idempotent).
  for (Lane& lane : lanes_) {
    for (const NodeId id : lane.pending_down) refresh_down(id);
    lane.pending_down.clear();
  }
}

[[gnu::noinline]] geo::Vec2 Network::sample_position_at(NodeId id,
                                                        sim::SimTime t) {
  mobility::Leg& leg = legs_[id];
  if (!(t < leg.until)) [[unlikely]] {
    leg = nodes_[id].mobility->leg_at(t);
  }
  return leg.at(t);
}

PayloadPools::Stats Network::pool_stats() const noexcept {
  PayloadPools::Stats total;
  for_each_lane([&](const Lane& lane) {
    const PayloadPools::Stats s = lane.pools->stats();
    total.acquires += s.acquires;
    total.slab_allocs += s.slab_allocs;
    total.peak_live += s.peak_live;
  });
  return total;
}

std::uint64_t Network::frames_transmitted() const noexcept {
  std::uint64_t total = 0;
  for_each_lane([&](const Lane& lane) { total += lane.frames_tx; });
  return total;
}

std::uint64_t Network::frames_delivered() const noexcept {
  std::uint64_t total = 0;
  for_each_lane([&](const Lane& lane) { total += lane.frames_rx; });
  return total;
}

std::uint64_t Network::frames_lost() const noexcept {
  std::uint64_t total = 0;
  for_each_lane([&](const Lane& lane) { total += lane.frames_lost; });
  return total;
}

}  // namespace p2p::net
