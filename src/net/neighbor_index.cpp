#include "net/neighbor_index.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace p2p::net {

NeighborIndex::NeighborIndex(geo::Region region, double range,
                             double tolerance_s, double max_speed)
    : region_(region),
      range_(range),
      tolerance_(tolerance_s),
      max_speed_(max_speed),
      drift_margin_(2.0 * tolerance_s * max_speed) {
  P2P_ASSERT(range > 0.0);
  P2P_ASSERT(region.width > 0.0 && region.height > 0.0);
  // Cells must be at least (range + drift margin) wide so the 3x3 block
  // around a query point is guaranteed to contain every true neighbor even
  // with stale indexed positions.
  cell_size_ = range + drift_margin_;
  cols_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(region.width / cell_size_));
  rows_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(region.height / cell_size_));
  cell_start_.resize(cols_ * rows_ + 1, 0);
  cell_fill_.resize(cols_ * rows_, 0);
}

std::size_t NeighborIndex::cell_of(geo::Vec2 p) const noexcept {
  const geo::Vec2 q = region_.clamp(p);
  auto cx = static_cast<std::size_t>(q.x / cell_size_);
  auto cy = static_cast<std::size_t>(q.y / cell_size_);
  if (cx >= cols_) cx = cols_ - 1;
  if (cy >= rows_) cy = rows_ - 1;
  return cy * cols_ + cx;
}

void NeighborIndex::grow_to(std::size_t n) {
  if (node_cell_.size() < n) {
    ++alloc_events_;
    node_pos_.resize(n);
    node_cell_.resize(n);
    cell_nodes_.resize(n);
    cell_pos_.resize(n);
  }
}

void NeighborIndex::rebuild(sim::SimTime now, std::size_t n) {
  // Counting sort of ids into cells. Ids are visited ascending, so every
  // cell comes out id-sorted — the candidate order the RNG draw sequence
  // is keyed to.
  const std::size_t cells = cols_ * rows_;
  std::fill(cell_start_.begin(), cell_start_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_cell_[i] = static_cast<std::uint32_t>(cell_of(node_pos_[i]));
    ++cell_start_[node_cell_[i] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  std::copy(cell_start_.begin(), cell_start_.end() - 1, cell_fill_.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t at = cell_fill_[node_cell_[i]]++;
    cell_nodes_[at] = static_cast<NodeId>(i);
    cell_pos_[at] = node_pos_[i];
  }
  indexed_count_ = n;
  built_at_ = now;
  ever_built_ = true;
}

void NeighborIndex::candidates_near(geo::Vec2 center, sim::SimTime now,
                                    std::vector<NodeId>* out) const {
  P2P_ASSERT(out != nullptr);
  P2P_ASSERT_MSG(ever_built_, "candidates_near before first refresh");
  out->clear();
  const geo::Vec2 q = region_.clamp(center);
  const auto cx = static_cast<std::ptrdiff_t>(q.x / cell_size_);
  const auto cy = static_cast<std::ptrdiff_t>(q.y / cell_size_);
  // Every entry was sampled at built_at_: a true neighbor sits within
  // `range_` of the (fresh) query center, and its stored position can sit
  // at most (now - built_at_) * max_speed from its true position, so this
  // reach never rejects a true neighbor. No drift margin is added on top —
  // the margin sizes cells for 3x3 *coverage*; the prune radius only needs
  // the stored-position error bound.
  const double reach = range_ + (now - built_at_) * max_speed_;
  const double reach2 = reach * reach;
  const std::ptrdiff_t x0 = cx > 0 ? cx - 1 : 0;
  const std::ptrdiff_t x1 = cx + 1 < static_cast<std::ptrdiff_t>(cols_)
                                ? cx + 1
                                : static_cast<std::ptrdiff_t>(cols_) - 1;
  for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
    const std::ptrdiff_t y = cy + dy;
    if (y < 0 || y >= static_cast<std::ptrdiff_t>(rows_)) continue;
    const std::size_t row = static_cast<std::size_t>(y) * cols_;
    const std::size_t c0 = row + static_cast<std::size_t>(x0);
    const std::size_t c1 = row + static_cast<std::size_t>(x1);
    // The row's cells are adjacent in the CSR layout, so the triple is one
    // contiguous span scanned with a single filter.
    const std::uint32_t lo = cell_start_[c0];
    const std::uint32_t hi = cell_start_[c1 + 1];
    for (std::uint32_t k = lo; k < hi; ++k) {
      if (geo::distance2(cell_pos_[k], center) <= reach2) {
        out->push_back(cell_nodes_[k]);
      }
    }
  }
}

std::size_t NeighborIndex::memory_bytes() const noexcept {
  return node_pos_.capacity() * sizeof(geo::Vec2) +
         node_cell_.capacity() * sizeof(std::uint32_t) +
         cell_start_.capacity() * sizeof(std::uint32_t) +
         cell_fill_.capacity() * sizeof(std::uint32_t) +
         cell_nodes_.capacity() * sizeof(NodeId) +
         cell_pos_.capacity() * sizeof(geo::Vec2);
}

}  // namespace p2p::net
