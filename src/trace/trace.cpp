#include "trace/trace.hpp"

#include <ostream>

#include "util/assert.hpp"

namespace p2p::trace {

char event_code(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTransmit: return 's';
    case EventKind::kDeliver: return 'r';
    case EventKind::kDrop: return 'd';
  }
  return '?';
}

void Writer::record(const Record& record) {
  (*os_) << event_code(record.kind) << ' ' << record.time << ' '
         << record.node << ' ';
  if (record.peer == net::kBroadcast) {
    (*os_) << "bcast";
  } else {
    (*os_) << record.peer;
  }
  (*os_) << ' ' << record.size_bytes << '\n';
}

void Counter::record(const Record& record) {
  const auto k = static_cast<std::size_t>(record.kind);
  ++totals_[k];
  total_bytes_[k] += record.size_bytes;
  if (record.node < per_node_.size()) {
    ++per_node_[record.node].counts[k];
  }
}

std::uint64_t Counter::node_count(net::NodeId node, EventKind kind) const {
  P2P_ASSERT(node < per_node_.size());
  return per_node_[node].counts[static_cast<std::size_t>(kind)];
}

}  // namespace p2p::trace
