#include "graph/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace p2p::graph {

double local_clustering(const Graph& g, Vertex v) {
  const auto& nbrs = g.neighbors(v);
  const std::size_t k = nbrs.size();
  if (k < 2) return 0.0;
  std::size_t real_conn = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (g.has_edge(nbrs[i], nbrs[j])) ++real_conn;
    }
  }
  const double possible_conn = static_cast<double>(k) * (static_cast<double>(k) - 1.0) / 2.0;
  return static_cast<double>(real_conn) / possible_conn;
}

double clustering_coefficient(const Graph& g) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (g.degree(v) < 2) continue;
    sum += local_clustering(g, v);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double characteristic_path_length(const Graph& g) {
  // Sum over each source's reached set only: on a fragmented graph that is
  // O(reached pairs + edges), not O(V^2). The integer sums stay far below
  // 2^53, so converting them to double is exact.
  BfsScratch scratch;
  std::uint64_t sum = 0;
  std::uint64_t pairs = 0;
  for (Vertex v = 0; v < g.order(); ++v) {
    const auto reached = bfs_reach(g.adjacency(), v, scratch);
    for (const Vertex w : reached) {
      sum += static_cast<std::uint64_t>(scratch.distance(w));
    }
    pairs += reached.size() - 1;
  }
  return pairs == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(pairs);
}

SmallWorldMetrics analyze(const Graph& g) {
  SmallWorldMetrics m;
  m.vertices = g.order();
  m.edges = g.edge_count();
  m.mean_degree =
      m.vertices == 0 ? 0.0 : 2.0 * static_cast<double>(m.edges) / static_cast<double>(m.vertices);
  m.clustering = clustering_coefficient(g);
  m.path_length = characteristic_path_length(g);

  std::size_t count = 0;
  const std::vector<Vertex> labels = g.components(&count);
  m.components = count;
  std::vector<std::size_t> sizes(count, 0);
  for (const Vertex l : labels) ++sizes[l];
  m.largest_component = sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());

  if (m.vertices > 1) {
    double connected_pairs = 0.0;
    for (const std::size_t s : sizes) {
      connected_pairs += static_cast<double>(s) * (static_cast<double>(s) - 1.0);
    }
    m.connected_pair_fraction =
        connected_pairs / (static_cast<double>(m.vertices) *
                           (static_cast<double>(m.vertices) - 1.0));
  }

  // Small-world index sigma = (C/C_rand) / (L/L_rand).
  const double n = static_cast<double>(m.vertices);
  const double k = m.mean_degree;
  if (n > 1.0 && k > 1.0 && m.path_length > 0.0) {
    const double c_rand = k / n;
    const double l_rand = std::log(n) / std::log(k);
    if (c_rand > 0.0 && l_rand > 0.0 && m.clustering > 0.0) {
      m.smallworld_index = (m.clustering / c_rand) / (m.path_length / l_rand);
    }
  }
  return m;
}

double regular_lattice_path_length(std::size_t n, std::size_t k) {
  if (k == 0) return 0.0;
  return static_cast<double>(n) / (2.0 * static_cast<double>(k));
}

double random_graph_path_length(std::size_t n, std::size_t k) {
  if (n < 2 || k < 2) return 0.0;
  return std::log(static_cast<double>(n)) / std::log(static_cast<double>(k));
}

}  // namespace p2p::graph
