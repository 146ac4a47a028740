// Unit tests for the workload generators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::graph {
namespace {

TEST(Gnm, ExactEdgeCount) {
  const Graph g = gnm(100, 500, 1);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
}

TEST(Gnm, DenseRegimeUsesComplement) {
  const Graph g = gnm(20, 180, 2);  // max 190 edges
  EXPECT_EQ(g.num_edges(), 180u);
}

TEST(Gnm, FullCliqueAndDeterminism) {
  const Graph g = gnm(10, 45, 3);
  EXPECT_EQ(g.num_edges(), 45u);
  const Graph a = gnm(50, 200, 7);
  const Graph b = gnm(50, 200, 7);
  EXPECT_EQ(a.edges(), b.edges());
  const Graph c = gnm(50, 200, 8);
  EXPECT_NE(a.edges(), c.edges());
}

/// gnm as a one-pair-at-a-time std::set rejection loop: the batched
/// generator must stop at exactly this edge set.
std::vector<Edge> gnm_reference(NodeId n, EdgeId m, std::uint64_t seed) {
  const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
  const bool dense = m > max_edges / 2;
  const EdgeId target = dense ? max_edges - m : m;
  Rng rng(seed);
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < target) {
    auto u = static_cast<NodeId>(rng.next_below(n));
    auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.insert({u, v});
  }
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if ((chosen.count({u, v}) != 0) != dense) edges.push_back({u, v});
    }
  }
  return edges;
}

TEST(Gnm, MatchesSequentialSetReference) {
  struct Case {
    NodeId n;
    EdgeId m;
  };
  // Sparse (rejection) and dense (complement) branches, and the boundary.
  const Case cases[] = {{300, 2000}, {1000, 16000}, {64, 1500},
                        {40, 700},   {40, 390},     {40, 391}};
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1u, 3u, 4u, 5u, 11u}) {
      EXPECT_EQ(gnm(c.n, c.m, seed).edges(), gnm_reference(c.n, c.m, seed))
          << "n=" << c.n << " m=" << c.m << " seed=" << seed;
    }
  }
}

TEST(Gnm, RejectsTooManyEdges) {
  EXPECT_THROW(gnm(5, 11, 1), CheckFailure);
}

TEST(Gnp, EdgeCountNearExpectation) {
  const Graph g = gnp(400, 0.05, 4);
  const double expect = 0.05 * 400 * 399 / 2;
  EXPECT_GT(static_cast<double>(g.num_edges()), 0.7 * expect);
  EXPECT_LT(static_cast<double>(g.num_edges()), 1.3 * expect);
}

TEST(Gnp, Extremes) {
  EXPECT_EQ(gnp(50, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(gnp(10, 1.0, 1).num_edges(), 45u);
}

TEST(PowerLaw, TargetsEdgeCountAndSkew) {
  const Graph g = power_law(2000, 8000, 2.5, 5);
  EXPECT_GT(g.num_edges(), 4000u);
  EXPECT_LT(g.num_edges(), 16000u);
  // Head nodes should far out-degree tail nodes.
  std::uint64_t head = 0, tail = 0;
  for (NodeId v = 0; v < 20; ++v) head += g.degree(v);
  for (NodeId v = 1980; v < 2000; ++v) tail += g.degree(v);
  EXPECT_GT(head, 4 * std::max<std::uint64_t>(tail, 1));
}

TEST(RandomRegular, DegreesNearTarget) {
  const Graph g = random_regular(500, 8, 6);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(g.degree(v), 8u);
  }
  // Pairing-model collisions are rare: average degree close to 8.
  EXPECT_GT(2 * g.num_edges(), 500u * 7u);
}

TEST(Deterministic, CompleteAndBipartite) {
  EXPECT_EQ(complete(6).num_edges(), 15u);
  EXPECT_EQ(complete(6).max_degree(), 5u);
  const Graph kb = complete_bipartite(3, 4);
  EXPECT_EQ(kb.num_nodes(), 7u);
  EXPECT_EQ(kb.num_edges(), 12u);
  EXPECT_FALSE(kb.has_edge(0, 1));  // same side
  EXPECT_TRUE(kb.has_edge(0, 3));
}

TEST(Deterministic, CyclePathGridStar) {
  EXPECT_EQ(cycle(8).num_edges(), 8u);
  EXPECT_EQ(cycle(8).max_degree(), 2u);
  EXPECT_EQ(path(8).num_edges(), 7u);
  const Graph gr = grid(3, 4);
  EXPECT_EQ(gr.num_nodes(), 12u);
  EXPECT_EQ(gr.num_edges(), 3 * 3 + 2 * 4);  // 17
  EXPECT_EQ(star(9).num_nodes(), 10u);
  EXPECT_EQ(star(9).max_degree(), 9u);
}

TEST(RandomTree, IsTree) {
  const Graph g = random_tree(200, 9);
  EXPECT_EQ(g.num_edges(), 199u);
  // Connectivity via simple reachability from node 0.
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::uint32_t count = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId u : g.neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  EXPECT_EQ(count, 200u);
}

TEST(RandomBipartite, RespectsSides) {
  const Graph g = random_bipartite(30, 40, 200, 10);
  EXPECT_EQ(g.num_edges(), 200u);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 30u);
    EXPECT_GE(e.v, 30u);
  }
}

TEST(DisjointUnion, ShiftsIds) {
  const Graph a = cycle(3);
  const Graph b = path(2);
  const Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.num_nodes(), 5u);
  EXPECT_EQ(u.num_edges(), 4u);
  EXPECT_TRUE(u.has_edge(3, 4));
  EXPECT_FALSE(u.has_edge(2, 3));
}

TEST(Lopsided, StructureAsSpecified) {
  const Graph g = lopsided(4, 50, 100, 150, 11);
  EXPECT_EQ(g.num_nodes(), 4u + 200u + 100u);
  for (NodeId i = 0; i < 4; ++i) EXPECT_GE(g.degree(i), 50u);
  // Leaves have degree exactly 1.
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_GE(g.num_edges(), 4u * 50u + 140u);
}

}  // namespace
}  // namespace dmpc::graph
