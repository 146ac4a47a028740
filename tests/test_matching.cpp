// Tests for the deterministic maximal matching pipeline (§3, Theorem 7).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "matching/det_matching.hpp"

namespace dmpc::matching {
namespace {

using graph::Graph;

TEST(DetMatching, ValidOnRandomGraphs) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::gnm(256, 2048, seed);
    const auto result = det_maximal_matching(g, DetMatchingConfig{});
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
    EXPECT_GE(result.iterations, 1u);
  }
}

TEST(DetMatching, DeterministicAcrossRuns) {
  const Graph g = graph::gnm(200, 1600, 3);
  const auto a = det_maximal_matching(g, DetMatchingConfig{});
  const auto b = det_maximal_matching(g, DetMatchingConfig{});
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(DetMatching, StructuredFamilies) {
  const auto configs = DetMatchingConfig{};
  for (const Graph& g :
       {graph::cycle(64), graph::path(64), graph::star(63),
        graph::complete_bipartite(16, 16), graph::grid(8, 8)}) {
    const auto result = det_maximal_matching(g, configs);
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

TEST(DetMatching, PowerLawAndLopsided) {
  const Graph pl = graph::power_law(400, 2400, 2.5, 4);
  EXPECT_TRUE(graph::is_maximal_matching(
      pl, det_maximal_matching(pl, DetMatchingConfig{}).matching));
  const Graph lop = graph::lopsided(4, 40, 100, 200, 5);
  EXPECT_TRUE(graph::is_maximal_matching(
      lop, det_maximal_matching(lop, DetMatchingConfig{}).matching));
}

TEST(DetMatching, IterationReportsShowProgress) {
  const Graph g = graph::gnm(256, 2048, 6);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  ASSERT_EQ(result.reports.size(), result.iterations);
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    const auto& r = result.reports[i];
    EXPECT_EQ(r.iteration, i + 1);
    EXPECT_LT(r.edges_after, r.edges_before);
    EXPECT_GT(r.progress_fraction, 0.0);
    EXPECT_GT(r.matched_pairs, 0u);
    EXPECT_GE(r.cls, 1u);
  }
  EXPECT_EQ(result.reports.back().edges_after, 0u);
}

TEST(DetMatching, IterationsLogarithmic) {
  // O(log n) claim: generous constant for the finite-n check.
  const Graph g = graph::gnm(1024, 8192, 7);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  const double log_m =
      std::log2(static_cast<double>(g.num_edges()) + 1.0);
  EXPECT_LE(result.iterations, static_cast<std::uint64_t>(12 * log_m) + 12);
}

TEST(DetMatching, SpaceWithinBudget) {
  const Graph g = graph::gnm(512, 4096, 8);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  // Simulator enforces this; re-assert from the metrics.
  EXPECT_LE(result.metrics.peak_machine_load(), result.machine_space);
}

TEST(DetMatching, RoundsAccumulateByLabel) {
  const Graph g = graph::gnm(256, 2048, 9);
  const auto result = det_maximal_matching(g, DetMatchingConfig{});
  const auto& labels = result.metrics.rounds_by_label();
  EXPECT_TRUE(labels.count("good_nodes/matching"));
  EXPECT_TRUE(labels.count("matching/selection"));
  EXPECT_TRUE(labels.count("matching/gather2hop"));
  EXPECT_GT(result.metrics.rounds(), 0u);
  EXPECT_GT(result.metrics.total_communication(), 0u);
}

TEST(DetMatching, TinyGraphs) {
  const Graph single = Graph::from_edges(2, {{0, 1}});
  const auto result = det_maximal_matching(single, DetMatchingConfig{});
  ASSERT_EQ(result.matching.size(), 1u);
  const Graph empty = Graph::from_edges(3, {});
  const auto none = det_maximal_matching(empty, DetMatchingConfig{});
  EXPECT_TRUE(none.matching.empty());
  EXPECT_EQ(none.iterations, 0u);
}

TEST(DetMatching, EpsVariants) {
  const Graph g = graph::gnm(256, 2048, 10);
  for (double eps : {0.3, 0.5, 0.7}) {
    DetMatchingConfig config;
    config.eps = eps;
    const auto result = det_maximal_matching(g, config);
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

}  // namespace
}  // namespace dmpc::matching
