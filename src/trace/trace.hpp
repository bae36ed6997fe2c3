// Packet-level tracing — the ns-2 workflow the paper's methodology
// implies: simulations emit a trace of link-layer events, figures are
// post-processed from it.
//
// The Network emits one record per transmit / delivery / drop when a sink
// is attached (zero overhead otherwise). Writer renders an ns-2-like line
// format for post-processing outside the simulator; Counter aggregates in
// memory for tests and quick statistics.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace p2p::trace {

enum class EventKind : std::uint8_t {
  kTransmit = 0,  // 's' — a node put a frame on the air
  kDeliver,       // 'r' — a node received a frame
  kDrop,          // 'd' — lost (out of range / channel loss / dead node)
};

char event_code(EventKind kind) noexcept;

struct Record {
  sim::SimTime time = 0.0;
  EventKind kind = EventKind::kTransmit;
  net::NodeId node = net::kInvalidNode;  // acting node (sender or receiver)
  net::NodeId peer = net::kInvalidNode;  // addressee (kBroadcast for bcast)
  std::size_t size_bytes = 0;
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const Record& record) = 0;
};

/// Renders records as text lines:
///   <code> <time> <node> <peer|bcast> <bytes>
class Writer final : public Sink {
 public:
  explicit Writer(std::ostream& os) : os_(&os) {}
  void record(const Record& record) override;

 private:
  std::ostream* os_;
};

/// In-memory aggregation: counts and bytes per event kind, per node.
class Counter final : public Sink {
 public:
  explicit Counter(std::size_t num_nodes) : per_node_(num_nodes) {}

  void record(const Record& record) override;

  std::uint64_t count(EventKind kind) const noexcept {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t bytes(EventKind kind) const noexcept {
    return total_bytes_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t node_count(net::NodeId node, EventKind kind) const;
  std::size_t nodes() const noexcept { return per_node_.size(); }

 private:
  struct PerNode {
    std::array<std::uint64_t, 3> counts{};
  };
  std::array<std::uint64_t, 3> totals_{};
  std::array<std::uint64_t, 3> total_bytes_{};
  std::vector<PerNode> per_node_;
};

/// Bridges the Network's observer hook to a trace sink:
///   network.set_observer(&adapter);
class NetworkAdapter final : public net::NetObserver {
 public:
  explicit NetworkAdapter(Sink& sink) : sink_(&sink) {}

  void on_transmit(double time, net::NodeId node, net::NodeId dst,
                   std::size_t bytes) override {
    sink_->record({time, EventKind::kTransmit, node, dst, bytes});
  }
  void on_deliver(double time, net::NodeId node, net::NodeId sender,
                  std::size_t bytes) override {
    sink_->record({time, EventKind::kDeliver, node, sender, bytes});
  }
  void on_drop(double time, net::NodeId sender, net::NodeId dst,
               std::size_t bytes) override {
    sink_->record({time, EventKind::kDrop, sender, dst, bytes});
  }

 private:
  Sink* sink_;
};

}  // namespace p2p::trace
