// Graph + small-world metrics against hand-computed values.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p::graph;

Graph ring_lattice(std::size_t n, std::size_t k_each_side) {
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t d = 1; d <= k_each_side; ++d) {
      g.add_edge(v, static_cast<Vertex>((v + d) % n));
    }
  }
  return g;
}

// The characteristic path length by definition: one allocating BFS per
// source and a scan over all V entries, O(V^2). The reference the
// library's O(reached) version must match exactly.
double reference_path_length(const Graph& g) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (Vertex v = 0; v < g.order(); ++v) {
    const std::vector<int> dist = g.bfs_distances(v);
    for (Vertex w = 0; w < g.order(); ++w) {
      if (w != v && dist[w] != kUnreachable) {
        sum += dist[w];
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

// Component labels rebuilt from bfs_reach sweeps in vertex order, which is
// the labelling components() defines.
std::vector<Vertex> labels_from_reach(const Graph& g) {
  std::vector<Vertex> label(g.order(), static_cast<Vertex>(-1));
  BfsScratch scratch;
  Vertex next = 0;
  for (Vertex s = 0; s < g.order(); ++s) {
    if (label[s] != static_cast<Vertex>(-1)) continue;
    for (const Vertex v : bfs_reach(g.adjacency(), s, scratch)) label[v] = next;
    ++next;
  }
  return label;
}

// `n` vertices under a seeded random relabelling. The first `active`
// labels get `edges` random edges, plus a path through all of them when
// `spanning` (one component); the other n - active stay isolated.
Graph random_graph(std::size_t n, std::size_t active, std::size_t edges,
                   bool spanning, std::uint64_t seed) {
  p2p::sim::RngStream rng(seed);
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), Vertex{0});
  rng.shuffle(perm);
  const auto pick = [&] {
    return perm[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(active) - 1))];
  };
  Graph g(n);
  for (std::size_t i = 1; spanning && i < active; ++i) {
    g.add_edge(perm[i - 1], perm[i]);
  }
  for (std::size_t e = 0; e < edges; ++e) g.add_edge(pick(), pick());
  return g;
}

std::size_t component_count(const Graph& g) {
  std::size_t count = 0;
  g.components(&count);
  return count;
}

void expect_exact(const Graph& g) {
  EXPECT_EQ(characteristic_path_length(g), reference_path_length(g));
  EXPECT_EQ(g.components(), labels_from_reach(g));
}

TEST(Graph, AddEdgeIgnoresDuplicatesSelfLoopsAndOutOfRange) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 0);
  g.add_edge(0, 9);
  EXPECT_EQ(g.edge_count(), 1U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g(5);
  for (Vertex v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  const auto dist = g.bfs_distances(0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(dist[v], static_cast<int>(v));
}

TEST(Graph, BfsMarksUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  // 2 and 3 disconnected.
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Graph, BfsReachListsTheComponentInBfsOrder) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(5, 6);
  BfsScratch scratch;
  const auto reached = bfs_reach(g.adjacency(), 0, scratch);
  ASSERT_EQ(reached.size(), 4U);  // {0,1,2,3}; 4 isolated, {5,6} apart
  EXPECT_EQ(reached[0], 0U);
  const auto dist = g.bfs_distances(0);
  int last = 0;
  for (const Vertex v : reached) {
    EXPECT_EQ(scratch.distance(v), dist[v]);
    EXPECT_GE(scratch.distance(v), last);  // BFS order: non-decreasing
    last = scratch.distance(v);
  }
  const auto isolated = bfs_reach(g.adjacency(), 4, scratch);
  ASSERT_EQ(isolated.size(), 1U);
  EXPECT_EQ(scratch.distance(4), 0);
  EXPECT_TRUE(bfs_reach(g.adjacency(), 99, scratch).empty());
}

TEST(Graph, Components) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  std::size_t count = 0;
  const auto labels = g.components(&count);
  EXPECT_EQ(count, 3U);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[3], labels[5]);
}

TEST(Metrics, TriangleHasClusteringOne) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(local_clustering(g, 0), 1.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 1.0);
}

TEST(Metrics, StarHasClusteringZero) {
  Graph g(5);
  for (Vertex v = 1; v < 5; ++v) g.add_edge(0, v);
  EXPECT_DOUBLE_EQ(local_clustering(g, 0), 0.0);
  // Leaves have degree 1 -> excluded; the center contributes 0.
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 0.0);
}

TEST(Metrics, PaperDefinitionRealOverPossible) {
  // Node 0 with neighbors 1,2,3; only (1,2) connected: 1 of 3 pairs.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  EXPECT_NEAR(local_clustering(g, 0), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, PathLengthOfTriangleAndPath) {
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(characteristic_path_length(triangle), 1.0);

  Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  // Distances: (0,1)=1 (0,2)=2 (1,2)=1 -> mean 4/3.
  EXPECT_NEAR(characteristic_path_length(path), 4.0 / 3.0, 1e-12);
}

TEST(Metrics, PathLengthWithoutConnectedPairsIsZero) {
  // Empty, one vertex, all isolated.
  for (const std::size_t n : {0UL, 1UL, 300UL}) {
    const Graph g(n);
    expect_exact(g);
    EXPECT_EQ(characteristic_path_length(g), 0.0);
    EXPECT_EQ(component_count(g), n);
  }
}

// Shaped like the final mega-scale graphs: thousands of small fragments.
TEST(Metrics, PathLengthMatchesReferenceOnFragmentedGraph) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = random_graph(5000, 5000, 2700, false, seed);
    const std::size_t count = component_count(g);
    EXPECT_GT(count, 2000U);
    EXPECT_LT(count, 3000U);
    expect_exact(g);
    EXPECT_GT(characteristic_path_length(g), 1.0);
  }
}

TEST(Metrics, PathLengthMatchesReferenceOnOneComponent) {
  for (const std::uint64_t seed : {4ULL, 5ULL, 6ULL}) {
    const Graph g = random_graph(600, 600, 150, true, seed);
    EXPECT_EQ(component_count(g), 1U);
    expect_exact(g);
  }
}

TEST(Metrics, PathLengthMatchesReferenceOnIsolatedPlusLargeComponent) {
  for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    const Graph g = random_graph(1500, 900, 200, true, seed);
    EXPECT_EQ(component_count(g), 601U);
    expect_exact(g);
  }
}

TEST(Metrics, RingLatticeValues) {
  // Ring lattice n=20, k=4 (2 each side): C = 0.5 (Watts-Strogatz).
  const Graph g = ring_lattice(20, 2);
  EXPECT_EQ(g.edge_count(), 40U);
  EXPECT_NEAR(clustering_coefficient(g), 0.5, 1e-9);
}

TEST(Metrics, RewiringShortensPathLength) {
  const Graph lattice = ring_lattice(40, 2);
  Graph rewired = ring_lattice(40, 2);
  // Add a few long chords (the Watts-Strogatz "bridges").
  rewired.add_edge(0, 20);
  rewired.add_edge(10, 30);
  rewired.add_edge(5, 25);
  const double l0 = characteristic_path_length(lattice);
  const double l1 = characteristic_path_length(rewired);
  EXPECT_LT(l1, l0);
  // Clustering barely moves.
  EXPECT_NEAR(clustering_coefficient(rewired), clustering_coefficient(lattice),
              0.05);
}

TEST(Metrics, AnalyzeSummarizesStructure) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  const auto m = analyze(g);
  EXPECT_EQ(m.vertices, 7U);
  EXPECT_EQ(m.edges, 4U);
  EXPECT_EQ(m.components, 4U);  // triangle, pair, 2 singletons
  EXPECT_EQ(m.largest_component, 3U);
  // Connected ordered pairs: 3*2 + 2*1 = 8 of 42.
  EXPECT_NEAR(m.connected_pair_fraction, 8.0 / 42.0, 1e-12);
}

TEST(Metrics, ReferencePathLengths) {
  EXPECT_DOUBLE_EQ(regular_lattice_path_length(100, 4), 12.5);
  EXPECT_NEAR(random_graph_path_length(100, 4),
              std::log(100.0) / std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(regular_lattice_path_length(100, 0), 0.0);
  EXPECT_DOUBLE_EQ(random_graph_path_length(1, 4), 0.0);
}

TEST(Metrics, EmptyGraphIsSafe) {
  const Graph g(0);
  const auto m = analyze(g);
  EXPECT_EQ(m.vertices, 0U);
  EXPECT_DOUBLE_EQ(m.clustering, 0.0);
  EXPECT_DOUBLE_EQ(m.path_length, 0.0);
}

}  // namespace
