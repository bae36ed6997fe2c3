// The simulated wireless world: nodes, channel, and frame delivery.
//
// Communication is unit-disk: a frame transmitted by node A reaches every
// live node within `range` metres of A (or just the addressed neighbor for
// link-layer unicast). Delivery is delayed by airtime + propagation +
// random defer jitter (see mac.hpp), and a node's own transmissions
// serialize, approximating a half-duplex radio.
//
// Network is strictly below routing: it never inspects payloads, it only
// moves FramePayload blobs between nodes and charges energy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/vec2.hpp"
#include "mobility/model.hpp"
#include "net/energy.hpp"
#include "net/mac.hpp"
#include "net/neighbor_index.hpp"
#include "net/payload.hpp"
#include "net/types.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace p2p::net {

struct NetworkParams {
  geo::Region region{100.0, 100.0};
  double range = 10.0;             // paper Table 2: 10 m transmission range
  MacParams mac;
  double index_tolerance_s = 0.25; // spatial-index staleness bound
  double max_speed_hint = 1.0;     // upper bound on any node's speed (m/s)
};

class Network {
 public:
  Network(sim::Simulator& simulator, const NetworkParams& params,
          sim::RngStream mac_rng);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a node; ids are dense and assigned in call order.
  NodeId add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                  const EnergyParams& energy = {});

  std::size_t size() const noexcept { return nodes_.size(); }

  /// Attach a frame listener; every frame the node receives is fanned out
  /// to all listeners in attach order. Listener must outlive the Network.
  void attach_listener(NodeId id, LinkListener* listener);

  /// Transmit to all in-range neighbors. No-op if the sender is down.
  void broadcast(NodeId sender, FramePayloadPtr payload, std::size_t bytes);

  /// Transmit to one neighbor; silently dropped if out of range at send
  /// time (the sender learns nothing — real radios don't either; reliability
  /// is the routing layer's problem).
  void unicast(NodeId sender, NodeId neighbor, FramePayloadPtr payload,
               std::size_t bytes);

  /// Current position of `id`, evaluated on the node's cached trajectory
  /// leg: the virtual mobility call is paid once per leg, not once per
  /// query (range filters, gray-zone distances, snapshots).
  geo::Vec2 position_of(NodeId id);
  bool in_range(NodeId a, NodeId b);
  /// Live neighbors within range of `id` (exact, fresh positions), in
  /// the index's candidate order: (cell at index build time, id).
  void neighbors_of(NodeId id, std::vector<NodeId>* out);
  /// Read-only view of the spatial index (its built_at() is the "index
  /// build time" above).
  const NeighborIndex& neighbor_index() const noexcept { return index_; }

  /// Physical connectivity graph over live nodes at the current time.
  /// adjacency[i] lists i's neighbors; down nodes get empty lists.
  std::vector<std::vector<NodeId>> adjacency_snapshot();

  /// Physical hop distance between two nodes, or graph::kUnreachable: a
  /// BFS directly over the spatial grid (explores only the ball around
  /// `a`, early-exits at `b`) instead of materializing the full adjacency
  /// for a single distance. Same edge relation as adjacency_snapshot(), so
  /// the same unique BFS distance. Lane-owned scratch — no per-query
  /// allocations.
  int physical_hop_distance(NodeId a, NodeId b);

  EnergyModel& energy(NodeId id);
  const EnergyModel& energy(NodeId id) const;

  /// Down = battery empty or administratively failed. Answered from a
  /// dense byte array (kept in sync at the three points liveness can
  /// change: add_node, set_failed, and energy consumption inside the
  /// delivery paths) so the candidate-filter loops never touch the cold
  /// NodeState structs.
  bool alive(NodeId id) const noexcept {
    P2P_ASSERT(id < down_.size());
    return down_[id] == 0;
  }
  /// Administrative kill/revive (churn experiments).
  void set_failed(NodeId id, bool failed);

  // ---- fault injection (src/fault). All of these are pay-for-what-you-
  // use: with no blackouts and no burst the hot paths below take exactly
  // the same branches and RNG draws as before the fault layer existed. ----

  /// Suppress the link between `a` and `b` (both directions) until `until`.
  /// Extends an existing blackout if one is active.
  void set_link_blackout(NodeId a, NodeId b, sim::SimTime until);
  /// Gilbert-Elliott bad state: extra loss probability composed with the
  /// base MAC loss (p_eff = 1 - (1-p_base)(1-p_burst)); 0 restores the
  /// good state.
  void set_burst_loss(double p) noexcept { burst_loss_ = p; }

  /// Can a frame from `a` currently reach `b`? Liveness + range + blackout
  /// in one query — the link-break predicate the routing layer should use
  /// (a dead-but-in-range next hop is just as gone as an out-of-range one).
  bool link_usable(NodeId a, NodeId b);

  sim::Simulator& simulator() noexcept { return *base_.sim; }
  const NetworkParams& params() const noexcept { return params_; }

  /// Per-run payload pools: every message this world sends is acquired
  /// here (see net/payload.hpp). Pools are holder-counted, so frames still
  /// queued in the simulator keep their pools alive past ~Network. In
  /// sharded mode a caller executing inside a shard window gets its lane's
  /// private pools (non-atomic refcounts stay single-threaded); everyone
  /// else — build, global events, collection — gets the base lane's pools.
  PayloadPools& pools() noexcept { return *lane().pools; }
  const PayloadPools& pools() const noexcept { return *lane().pools; }
  /// Aggregate pool stats over the base lane and every shard lane.
  PayloadPools::Stats pool_stats() const noexcept;

  // ---- sharded (conservative parallel) execution ------------------------
  // See sim/sharded.hpp for the execution model. The Network keeps ONE
  // world (nodes, liveness, spatial index, blackouts) but runs the delivery
  // path on *lanes*: each lane owns a Simulator, a mac RNG stream, payload
  // pools, broadcast batches and scratch. The sequential path runs on the
  // base lane; sharded mode adds one lane per shard, so a shard's window
  // runs without touching any other lane's mutable state.
  //
  // broadcast, unicast, deliver, deliver_batch, in_range and link_usable
  // each have one body, run on the calling thread's lane(). The windowed
  // model differs from the sequential one at four points: three kept in
  // helpers keyed on whether the lane is a shard lane, and the observer:
  //   * positions (lane_position, refresh_for_scan): the base lane samples
  //     fresh positions at its clock and rebuilds a stale index before a
  //     scan; a shard lane reads the index's cached positions, frozen at
  //     the window start (stale by <= the index tolerance plus one
  //     lookahead — the bound the candidate prune already covers);
  //   * liveness after an energy charge (settle_liveness): the base lane
  //     flips down_ at once; a shard lane queues the flip for the barrier,
  //     so liveness stays the window-start snapshot all window;
  //   * receiver routing (to_outbox): a shard lane queues a receiver homed
  //     on another shard in its outbox, merged at the barrier in fixed
  //     shard order, where the pool that made the frame's payload copies
  //     it into the destination lane's pools (PayloadPools::copy_of); the
  //     base lane delivers every receiver itself;
  //   * the observer, which is simply null in sharded mode.
  // The sharded mode is therefore a (deterministic) model variant selected
  // by the shard count, not a bit-identical replay of the sequential
  // schedule — what IS bit-identical is the same shard count across any
  // thread counts.

  /// Switch into sharded mode: one Simulator and one mac RNG stream per
  /// shard, `home_shard[id]` the shard whose lane executes node id's
  /// events. Must be called before any traffic; incompatible with a
  /// NetObserver. Shard count must be >= 2 (a single shard is just the
  /// sequential path).
  void enable_sharding(std::vector<sim::Simulator*> shard_sims,
                       std::vector<std::uint32_t> home_shard,
                       std::vector<sim::RngStream> mac_rngs);
  /// Index of the lane bound to the calling thread, or kNoShard outside a
  /// window — lets upper layers keep per-shard accumulators for state that
  /// servents in different lanes would otherwise write concurrently.
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
  std::size_t current_shard() const noexcept {
    const Lane* lane = tls_lane_;
    return lane == nullptr ? kNoShard
                           : static_cast<std::size_t>(lane - lanes_.data());
  }

  /// Executor hooks (wired by the scenario layer into
  /// sim::ShardedExecutor::Callbacks). begin_window refreshes the spatial
  /// index so it stays fresh through [start, end); end_window drains
  /// every lane's outbox in shard order and applies deferred liveness
  /// flips. enter/exit_shard bind the calling thread's lane context.
  void begin_window(sim::SimTime start, sim::SimTime end);
  void end_window(sim::SimTime end);
  void enter_shard(std::size_t shard) noexcept;
  void exit_shard() noexcept;

  /// Attach a link-layer event observer (packet tracing); nullptr detaches.
  /// Unsupported in sharded mode (per-frame callbacks would interleave
  /// nondeterministically across lanes).
  void set_observer(NetObserver* observer) noexcept {
    P2P_ASSERT(lanes_.empty() || observer == nullptr);
    observer_ = observer;
  }

  // Telemetry: these sum the base lane's counters (the sequential path, or
  // traffic outside the windows) and every shard lane's.
  std::uint64_t frames_transmitted() const noexcept;
  std::uint64_t frames_delivered() const noexcept;
  std::uint64_t frames_lost() const noexcept;

  /// Approximate bytes held by the network layer: dense per-node arrays,
  /// the spatial index, every lane's scratch, batch pools and outbox, and
  /// the blackout ledger. Everything here is O(n) or O(active faults) —
  /// the mega-scale telemetry sums it per run to pin that down.
  std::size_t memory_bytes() const noexcept;

 private:
  // Cold per-node state: touched on add/attach, at transmit time (energy,
  // tx serialization), and at delivery fan-out. The fields the candidate
  // loops read per neighbor — trajectory leg and liveness — are split into
  // the dense legs_/down_ arrays below (structure-of-arrays), so a range
  // filter over k candidates touches k legs of 56 bytes, not k NodeStates
  // and k heap-allocated mobility models.
  struct NodeState {
    std::unique_ptr<mobility::MobilityModel> mobility;
    EnergyModel energy;
    std::vector<LinkListener*> listeners;
    bool failed = false;
    sim::SimTime next_free_tx = 0.0;
  };
  // ---- sharded-mode state -----------------------------------------------
  /// One cross-shard transmission: scheduled on the destination shard's
  /// Simulator at the barrier. Receivers are in candidate order; slots are
  /// reused across windows (payload Ref and receiver capacity recycle).
  struct OutMsg {
    sim::SimTime arrival = 0.0;
    std::uint32_t dst_shard = 0;
    NodeId sender = kInvalidNode;
    NodeId link_dst = kBroadcast;
    std::size_t size_bytes = 0;
    FramePayloadPtr payload;
    std::vector<NodeId> receivers;
  };
  /// Execution lane: everything the delivery hot path mutates. The base
  /// lane serves the sequential path, global events and collection; each
  /// shard lane is privatized so a window runs without synchronization.
  /// Node state (energy, tx serialization, listeners) is owned by the
  /// node's home lane by construction — only that lane executes the node's
  /// events. The outbox, tx_out and pending_down stay empty on the base
  /// lane.
  struct Lane {
    Lane(sim::Simulator* s, sim::RngStream rng)
        : sim(s),
          mac_rng(std::move(rng)),
          pools(std::make_unique<PayloadPools>()) {}
    sim::Simulator* sim = nullptr;
    sim::RngStream mac_rng;
    std::unique_ptr<PayloadPools> pools;
    std::vector<NodeId> scratch_candidates;
    // Recycled receiver lists for in-flight broadcast arrival events. A
    // batch index stays stable while the pool vector grows (nested
    // broadcasts from a delivery handler), so events capture the index,
    // never a reference.
    std::vector<std::vector<NodeId>> batch_pool;
    std::vector<std::uint32_t> free_batches;
    std::vector<OutMsg> outbox;
    std::size_t outbox_used = 0;
    /// (dst shard, outbox slot) pairs for the transmission being filtered
    /// — receivers of one broadcast group into one OutMsg per shard.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tx_out;
    /// Nodes whose battery died inside the window; down_ flips at the
    /// barrier (liveness is read-only while shards run).
    std::vector<NodeId> pending_down;
    // Grid-BFS scratch for physical_hop_distance(): generation-stamped
    // visited marks plus a flat frontier, and a dedicated candidate buffer
    // (scratch_candidates is live inside broadcast(), which can be on the
    // stack when a distance is queried).
    std::vector<std::uint64_t> grid_stamp;
    std::vector<int> grid_dist;
    std::vector<NodeId> grid_queue;
    std::vector<NodeId> grid_cand;
    std::uint64_t grid_gen = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_lost = 0;
  };

  /// The lane bound to the calling thread inside a window, else the base
  /// lane.
  Lane& lane() noexcept {
    Lane* lane = tls_lane_;
    return lane != nullptr ? *lane : base_;
  }
  const Lane& lane() const noexcept {
    const Lane* lane = tls_lane_;
    return lane != nullptr ? *lane : base_;
  }
  /// Calls fn on the base lane, then on every shard lane in shard order.
  template <typename Fn>
  void for_each_lane(Fn&& fn) const {
    fn(base_);
    for (const Lane& lane : lanes_) fn(lane);
  }
  static std::size_t lane_bytes(const Lane& lane) noexcept;

  // Lane mechanics shared by the sequential (base lane) and sharded paths.
  std::uint32_t acquire_batch(Lane& lane);
  void release_batch(Lane& lane, std::uint32_t batch);
  /// Start time of the next transmission by `node` (jitter drawn from the
  /// lane's stream + half-duplex serialization); advances the node's busy
  /// horizon.
  sim::SimTime schedule_tx(Lane& lane, NodeState& node, double duration);
  /// Is the (a, b) link blacked out at the lane's clock? With an empty
  /// ledger (no blackout ever set, or all purged) this is one size test.
  bool link_blacked_out(const Lane& lane, NodeId a, NodeId b) const;
  /// BFS over the spatial grid from `a` to `b` on the lane's scratch and
  /// positions. Callers have already handled out-of-range ids, a == b and
  /// dead endpoints.
  int grid_hop_distance(Lane& lane, NodeId a, NodeId b);

  // The lane-keyed model points (see "sharded execution" above).
  bool on_shard(const Lane& lane) const noexcept { return &lane != &base_; }
  /// Positions: fresh (position_of) on the base lane, the index's cached
  /// position on a shard lane.
  geo::Vec2 lane_position(const Lane& lane, NodeId id);
  /// Positions, scan side: the base lane rebuilds a stale index at its
  /// clock before a candidate scan; a shard lane's index is read-only.
  void refresh_for_scan(const Lane& lane);
  /// Liveness after charging `id`'s battery: down_ flips now on the base
  /// lane, at the barrier on a shard lane.
  void settle_liveness(Lane& lane, NodeId id);
  /// Receiver routing: on a shard lane, a receiver homed on another shard
  /// joins the transmission's outbox slot for that shard (one slot per
  /// destination shard, tracked in tx_out) and true is returned. The base
  /// lane keeps every receiver.
  bool to_outbox(Lane& lane, NodeId receiver, const Frame& frame,
                 sim::SimTime arrival);
  /// to_outbox's queueing half, kept out of line (the base lane never
  /// reaches it).
  void queue_in_outbox(Lane& lane, std::uint32_t dst, NodeId receiver,
                       const Frame& frame, sim::SimTime arrival);

  /// Position of `id` at an explicit instant, from the node's cached leg
  /// (re-fetched from its mobility model once `t` reaches the leg's end);
  /// position_of is this at the base lane's clock.
  geo::Vec2 sample_position_at(NodeId id, sim::SimTime t);
  /// Rebuild the spatial index if it is stale at `t`, sampling every
  /// position at `t` (one contiguous pass over the leg cache). Sequential
  /// paths pass the clock; sharded windows pass their start (the barrier
  /// instant — the only sharded-mode point that may touch the mobility
  /// models). Because sharded refreshes happen only at barriers, the index
  /// can age up to lookahead past the tolerance by the end of a window —
  /// sub-millimetre extra drift at the defaults, absorbed by the candidate
  /// prune's age-scaled reach.
  void refresh_index(sim::SimTime t);
  /// Charge and hand one frame to `receiver`'s listeners, if it is alive.
  void deliver(Lane& lane, NodeId receiver, const Frame& frame);
  /// Deliver one shared frame to every receiver in the lane's batch, in
  /// order, then return the receiver list to the pool.
  void deliver_batch(Lane& lane, std::uint32_t batch, const Frame& frame);

  /// Recompute down_[id] from the authoritative NodeState (failed flag +
  /// battery); called wherever either input can change.
  void refresh_down(NodeId id) noexcept {
    down_[id] = static_cast<std::uint8_t>(nodes_[id].failed ||
                                          !nodes_[id].energy.alive());
  }

  NetworkParams params_;
  Lane base_;  // the constructor's Simulator and mac stream
  std::vector<NodeState> nodes_;
  std::vector<mobility::Leg> legs_;  // hot: current trajectory leg per node
  std::vector<std::uint8_t> down_;   // hot: 1 = failed or battery dead
  NeighborIndex index_;

  /// One channel-level draw: base loss (with the Gilbert-Elliott burst
  /// composed in while one is in force) + gray zone, from the lane's
  /// stream. With the burst off this is exactly the fault-free draw,
  /// including the draw-only-when-positive fast path.
  bool channel_lost(sim::RngStream& rng, geo::Vec2 from, geo::Vec2 to);

  /// Key of the unordered link {a,b} in the blackout ledger (lo in the
  /// high word so keys are unique per pair).
  static std::uint64_t link_key(NodeId a, NodeId b) noexcept {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  /// Drop ledger entries whose end time has passed; re-arms the purge
  /// threshold at twice the surviving count.
  void purge_expired_blackouts();

  // Blackout ledger: end-of-blackout time per unordered node pair, keyed
  // by link_key; an absent entry means "never blacked out" (find returns
  // nullptr, equivalent to the old 0.0 sentinel). O(links actually
  // suppressed) — never O(n^2) — so mega-scale runs with localized faults
  // stay cheap. Fault-free runs pay neither memory nor lookups (an empty
  // ledger short-circuits every consultation). Expired entries need no
  // eager eviction (the end-time comparison against now() is the whole
  // query); they are swept opportunistically when the ledger next grows
  // past the purge threshold, which bounds residency at O(peak active).
  util::FlatMap<std::uint64_t, sim::SimTime, ~0ULL> blackout_map_;
  std::size_t blackout_purge_at_ = 64;
  double burst_loss_ = 0.0;

  NetObserver* observer_ = nullptr;

  // Shard lanes (empty = sequential; see enable_sharding).
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> home_shard_;
  /// Lane bound to the executing thread between enter_shard/exit_shard;
  /// null outside windows, which runs every entry point (broadcast,
  /// unicast, pools, in_range, ...) on the base lane.
  static constinit inline thread_local Lane* tls_lane_ = nullptr;
};

}  // namespace p2p::net
