// Uniform-grid spatial index over node positions.
//
// Cell size equals the radio range plus a drift margin, so all neighbors
// of a point live in the 3x3 cell block around it — candidate lookup is
// O(k). The query side is a CSR layout (cell_start_ offsets over
// contiguous cell_nodes_ / cell_pos_ arrays, id-ascending within a cell):
// a 3x3 query is nine bounded scans over two contiguous arrays, and the
// candidate order every delivery loop (and therefore every RNG draw
// sequence) is keyed to that layout.
//
// Maintenance is one full rebuild per tolerance window (`refresh`):
// every position is resampled, then the CSR arrays are rebuilt with a
// counting pass. Steady-state rebuilds are allocation-free — all arrays
// keep their capacity (see alloc_events()). Every entry is therefore
// sampled at built_at(), so the candidate prune is one uniform reach,
// range + (now - built_at) * max_speed, which never rejects a node that is
// truly in range now. Pruning is conservative — callers must do the exact
// range check against fresh positions.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/vec2.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"

namespace p2p::net {

class NeighborIndex {
 public:
  NeighborIndex(geo::Region region, double range, double tolerance_s,
                double max_speed);

  /// Full rebuild of `n` nodes if older than the tolerance:
  /// `position(id)` is then called once per id, ascending, and returns
  /// node id's position at time `now`. A fresh index calls it not at all.
  template <typename PositionFn>
  void refresh(sim::SimTime now, std::size_t n, PositionFn&& position) {
    if (is_fresh(now, n)) return;
    grow_to(n);
    for (std::size_t i = 0; i < n; ++i) {
      node_pos_[i] = position(static_cast<NodeId>(i));
    }
    rebuild(now, n);
  }

  /// Nodes whose indexed position may be within range of `center` at
  /// `now` (stored positions are pruned with the uniform reach above).
  /// Candidates only — callers must do the exact check against fresh
  /// positions. `out` is cleared first.
  void candidates_near(geo::Vec2 center, sim::SimTime now,
                       std::vector<NodeId>* out) const;

  sim::SimTime built_at() const noexcept { return built_at_; }

  /// Cached position of node `id` as of built_at() — the exact positions
  /// the CSR query arrays are built from. Sharded execution filters
  /// ranges against these (stale by at most the tolerance) so a window
  /// never touches the mobility models. Valid for id < the indexed
  /// population.
  geo::Vec2 cached_position(NodeId id) const noexcept { return node_pos_[id]; }

  /// How often a refresh had to grow a buffer. The steady-state lock-in
  /// test pins this: once warmed up, rebuilds over a fixed population
  /// allocate nothing.
  std::uint64_t alloc_events() const noexcept { return alloc_events_; }

  /// Bytes resident in the index's own structures (CSR arrays, per-node
  /// arrays) — megascale memory accounting.
  std::size_t memory_bytes() const noexcept;

 private:
  /// Whether the index built for `n` nodes is still within tolerance at
  /// `now` (refresh() is then a no-op).
  bool is_fresh(sim::SimTime now, std::size_t n) const noexcept {
    return ever_built_ && now - built_at_ < tolerance_ && n == indexed_count_;
  }
  std::size_t cell_of(geo::Vec2 p) const noexcept;
  /// Grows the per-node and CSR arrays to hold `n` nodes.
  void grow_to(std::size_t n);
  /// Rebuilds the CSR arrays from node_pos_[0, n).
  void rebuild(sim::SimTime now, std::size_t n);

  geo::Region region_;
  double range_;
  double tolerance_;
  double max_speed_;
  double drift_margin_;  // 2 * tolerance * max_speed: both nodes can move
  double cell_size_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;

  // Per-node state as of built_at_.
  std::vector<geo::Vec2> node_pos_;       // position at built_at_
  std::vector<std::uint32_t> node_cell_;  // node -> cell

  // CSR query arrays, rebuilt once per refresh window: nodes of cell c
  // live at [cell_start_[c], cell_start_[c+1]) in cell_nodes_,
  // id-ascending, with their cached positions alongside in cell_pos_.
  std::vector<std::uint32_t> cell_start_;        // cells + 1 offsets
  std::vector<std::uint32_t> cell_fill_;         // counting-pass cursor
  std::vector<NodeId> cell_nodes_;
  std::vector<geo::Vec2> cell_pos_;

  std::size_t indexed_count_ = 0;
  sim::SimTime built_at_ = -1.0;
  bool ever_built_ = false;
  std::uint64_t alloc_events_ = 0;
};

}  // namespace p2p::net
