// DSDV — Destination-Sequenced Distance Vector (Perkins & Bhagwat '94),
// the proactive counterpart to AODV.
//
// The paper's companion study (Oliveira, Siqueira, Loureiro [13])
// evaluates ad-hoc routing protocols under a P2P application; this agent
// lets the same comparison run here (bench/ablation_routing): every node
// periodically broadcasts its full routing table (destination, metric,
// destination sequence number); receivers adopt entries with newer
// sequence numbers, or equal sequence numbers and a better metric. A
// detected link break sets the metric to infinity with an odd sequence
// number and triggers an immediate partial update.
//
// Simplifications vs the 1994 paper, documented in DESIGN.md: no settling
// -time damping and no incremental-dump size optimization (updates always
// carry the changed entries; the byte accounting models the real size).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "routing/messages.hpp"
#include "routing/service.hpp"
#include "sim/simulator.hpp"

namespace p2p::routing {

struct DsdvParams {
  sim::SimTime periodic_update_interval = 15.0;  // full-dump cadence
  sim::SimTime update_jitter = 2.0;              // desynchronizes dumps
  sim::SimTime route_stale_timeout = 45.0;       // 3 missed dumps -> stale
};

/// One advertised table row.
struct DsdvEntry {
  NodeId dst = net::kInvalidNode;
  std::uint32_t metric = 0;  // kDsdvInfinity = unreachable
  std::uint32_t seq = 0;     // even = valid, odd = broken-route marker
};

inline constexpr std::uint32_t kDsdvInfinity = 0xFFFF;

/// Routing-table dump broadcast to neighbors.
struct DsdvUpdate final : net::FramePayload {
  DsdvUpdate() noexcept {
    kind = static_cast<net::PayloadKind>(FrameKind::kDsdvUpdate);
  }
  NodeId origin = net::kInvalidNode;
  std::vector<DsdvEntry> entries;
};
inline constexpr std::size_t kDsdvUpdateBaseBytes = 12;
inline constexpr std::size_t kDsdvEntryBytes = 12;

inline std::size_t dsdv_update_bytes(const DsdvUpdate& update) noexcept {
  return kDsdvUpdateBaseBytes + kDsdvEntryBytes * update.entries.size();
}

struct DsdvStats {
  std::uint64_t updates_sent = 0;       // periodic + triggered broadcasts
  std::uint64_t entries_advertised = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped = 0;  // no route
};

class DsdvAgent final : public net::LinkListener, public RoutingService {
 public:
  DsdvAgent(sim::Simulator& simulator, net::Network& network, NodeId self,
            const DsdvParams& params);
  ~DsdvAgent() override;

  DsdvAgent(const DsdvAgent&) = delete;
  DsdvAgent& operator=(const DsdvAgent&) = delete;

  void set_deliver_handler(DeliverFn fn) override { on_deliver_ = std::move(fn); }
  void send(NodeId dst, net::AppPayloadPtr app) override;
  /// DSDV maintains its tables proactively; hints are ignored to keep the
  /// destination-sequence-number invariants intact.
  void learn_route(NodeId /*dst*/, NodeId /*via*/, std::uint8_t /*hops*/) override {}
  bool has_route(NodeId dst) override;
  int route_hops(NodeId dst) override;
  Telemetry telemetry() const override {
    return Telemetry{stats_.updates_sent, stats_.data_delivered,
                     stats_.data_dropped};
  }

  void on_frame(const net::Frame& frame) override;

  /// Node crash: drop the table and any pending triggered update. own_seq_
  /// survives, and the periodic tick keeps its schedule but sends (and
  /// counts) nothing while the node is down.
  void reset() override;

  const DsdvStats& stats() const noexcept { return stats_; }
  NodeId self() const noexcept { return self_; }
  std::size_t table_size() const noexcept { return table_.size(); }

  /// Approximate table footprint. DSDV is proactive — every node carries a
  /// row per reachable destination by design, so this is inherently O(n)
  /// per node (the mega-scale benches use on-demand protocols for a reason).
  std::size_t memory_bytes() const override {
    return table_.size() * (sizeof(NodeId) + sizeof(Row) + 2 * sizeof(void*));
  }

 private:
  struct Row {
    NodeId next_hop = net::kInvalidNode;
    std::uint32_t metric = kDsdvInfinity;
    std::uint32_t seq = 0;
    sim::SimTime heard = 0.0;    // last advertisement time
    bool changed = false;        // pending for the next triggered update
  };

  Row* usable_route(NodeId dst);
  void handle_update(NodeId from, const DsdvUpdate& update);
  void route_data(DataMsg data);
  void handle_link_break(NodeId next_hop);

  void schedule_periodic_update();
  void broadcast_update(bool full);
  void schedule_triggered_update();

  sim::Simulator* sim_;
  net::Network* net_;
  NodeId self_;
  DsdvParams params_;
  std::unordered_map<NodeId, Row> table_;
  std::uint32_t own_seq_ = 0;  // always even when advertised
  DeliverFn on_deliver_;
  DsdvStats stats_;
  sim::EventId periodic_event_ = sim::kInvalidEventId;
  sim::EventId triggered_event_ = sim::kInvalidEventId;
  sim::RngStream jitter_rng_;
};

}  // namespace p2p::routing
