// Tests for the deterministic MIS pipeline (§4, Theorem 14).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "mis/det_mis.hpp"

namespace dmpc::mis {
namespace {

using graph::Graph;

TEST(DetMis, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(256, 2048, seed);
    const auto result = det_mis(g, DetMisConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

TEST(DetMis, DeterministicAcrossRuns) {
  const Graph g = graph::gnm(200, 1600, 3);
  const auto a = det_mis(g, DetMisConfig{});
  const auto b = det_mis(g, DetMisConfig{});
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(DetMis, StructuredFamilies) {
  for (const Graph& g :
       {graph::cycle(64), graph::path(64), graph::star(63),
        graph::complete(32), graph::complete_bipartite(16, 16),
        graph::grid(8, 8)}) {
    const auto result = det_mis(g, DetMisConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

TEST(DetMis, CompleteGraphPicksExactlyOne) {
  const Graph g = graph::complete(40);
  const auto result = det_mis(g, DetMisConfig{});
  EXPECT_EQ(std::count(result.in_set.begin(), result.in_set.end(), true), 1);
}

TEST(DetMis, IsolatedNodesAllJoin) {
  const Graph g = Graph::from_edges(6, {{0, 1}});
  const auto result = det_mis(g, DetMisConfig{});
  for (graph::NodeId v = 2; v < 6; ++v) EXPECT_TRUE(result.in_set[v]);
  EXPECT_TRUE(result.in_set[0] != result.in_set[1]);
}

TEST(DetMis, ReportsShowProgress) {
  const Graph g = graph::gnm(256, 2048, 5);
  const auto result = det_mis(g, DetMisConfig{});
  ASSERT_EQ(result.reports.size(), result.iterations);
  for (const auto& r : result.reports) {
    EXPECT_LT(r.edges_after, r.edges_before);
    EXPECT_GT(r.independent_added, 0u);
  }
  EXPECT_EQ(result.reports.back().edges_after, 0u);
}

TEST(DetMis, IterationsLogarithmic) {
  const Graph g = graph::gnm(1024, 8192, 6);
  const auto result = det_mis(g, DetMisConfig{});
  const double log_m = std::log2(static_cast<double>(g.num_edges()) + 1.0);
  EXPECT_LE(result.iterations, static_cast<std::uint64_t>(12 * log_m) + 12);
}

TEST(DetMis, PowerLawAndLopsided) {
  const Graph pl = graph::power_law(400, 2400, 2.5, 7);
  EXPECT_TRUE(graph::is_maximal_independent_set(
      pl, det_mis(pl, DetMisConfig{}).in_set));
  const Graph lop = graph::lopsided(4, 40, 100, 200, 8);
  EXPECT_TRUE(graph::is_maximal_independent_set(
      lop, det_mis(lop, DetMisConfig{}).in_set));
}

TEST(DetMis, SpaceWithinBudget) {
  const Graph g = graph::gnm(512, 4096, 9);
  const auto result = det_mis(g, DetMisConfig{});
  EXPECT_LE(result.metrics.peak_machine_load(), result.machine_space);
}

TEST(DetMis, TinyGraphs) {
  const Graph empty = Graph::from_edges(4, {});
  const auto result = det_mis(empty, DetMisConfig{});
  EXPECT_EQ(std::count(result.in_set.begin(), result.in_set.end(), true), 4);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(DetMis, EpsVariants) {
  const Graph g = graph::gnm(256, 2048, 10);
  for (double eps : {0.3, 0.5, 0.7}) {
    DetMisConfig config;
    config.eps = eps;
    const auto result = det_mis(g, config);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

}  // namespace
}  // namespace dmpc::mis
