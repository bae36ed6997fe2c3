// Undirected graph snapshots (physical connectivity or P2P overlay) and
// BFS utilities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace p2p::graph {

using Vertex = std::uint32_t;
inline constexpr int kUnreachable = -1;

class Graph {
 public:
  explicit Graph(std::size_t n) : adj_(n) {}
  /// Adopt an existing adjacency structure (e.g. Network::adjacency_snapshot).
  explicit Graph(std::vector<std::vector<Vertex>> adjacency)
      : adj_(std::move(adjacency)) {}

  std::size_t order() const noexcept { return adj_.size(); }
  const std::vector<std::vector<Vertex>>& adjacency() const noexcept {
    return adj_;
  }
  std::size_t edge_count() const noexcept;

  /// Add an undirected edge; duplicate edges are ignored.
  void add_edge(Vertex a, Vertex b);
  bool has_edge(Vertex a, Vertex b) const noexcept;

  const std::vector<Vertex>& neighbors(Vertex v) const { return adj_[v]; }
  std::size_t degree(Vertex v) const { return adj_[v].size(); }

  /// Hop distances from `src` to every vertex (kUnreachable if not
  /// connected).
  std::vector<int> bfs_distances(Vertex src) const;

  /// Connected-component label per vertex, labels are 0..k-1.
  std::vector<Vertex> components(std::size_t* count = nullptr) const;

 private:
  std::vector<std::vector<Vertex>> adj_;
};

/// Reusable workspace for bfs_reach: visited marks are generation stamps
/// (no O(n) clear per sweep) and the frontier is a flat vector reused
/// across calls.
class BfsScratch {
 public:
  BfsScratch() = default;

  /// Hop distance of a vertex settled by the last sweep.
  int distance(Vertex v) const { return dist_[v]; }

 private:
  friend std::span<const Vertex> bfs_reach(
      const std::vector<std::vector<Vertex>>& adj, Vertex src,
      BfsScratch& scratch);

  std::vector<std::uint32_t> stamp_;  // stamp_[v] == generation_ -> settled
  std::vector<int> dist_;             // valid only where stamped
  std::vector<Vertex> frontier_;      // BFS queue (head index, no pops)
  std::uint32_t generation_ = 0;
};

/// Full BFS sweep from `src`: the vertices reached, `src` first, in BFS
/// order, each with its hop distance in scratch.distance(v). O(reached +
/// their edges), not O(order); the span is valid until the next sweep on
/// `scratch`. Empty when `src` is out of range.
std::span<const Vertex> bfs_reach(
    const std::vector<std::vector<Vertex>>& adj, Vertex src,
    BfsScratch& scratch);

}  // namespace p2p::graph
