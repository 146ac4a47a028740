// Tests for the §5 low-degree pipeline: coloring, neighborhoods, phase
// compression, and the combined O(log Delta + log log n) solvers; and a
// differential test of the node-parallel coloring, gather and stage
// simulation against the serial oracle in lowdeg_oracle.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "lowdeg/coloring.hpp"
#include "lowdeg/lowdeg_solver.hpp"
#include "lowdeg/neighborhoods.hpp"
#include "lowdeg/phase_compression.hpp"
#include "lowdeg_oracle.hpp"
#include "mpc/cluster.hpp"
#include "support/rng.hpp"

namespace dmpc::lowdeg {
namespace {

using graph::Graph;
using graph::NodeId;

mpc::Cluster roomy_cluster() {
  mpc::ClusterConfig config;
  config.machine_space = 1 << 16;
  config.num_machines = 1 << 10;
  return mpc::Cluster(config);
}

TEST(Coloring, ProperWithQuadraticPalette) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(400, 5, 1);
  const auto result = linial_coloring(cluster, g);
  EXPECT_TRUE(graph::is_proper_coloring(g, result.color));
  // O(Delta^2) with modest constants: q <= next prime > k * Delta.
  EXPECT_LE(result.num_colors, 400u);
  EXPECT_GE(result.reduction_steps, 1u);
}

TEST(Coloring, Distance2IsValidAndSmall) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(300, 4, 2);
  const auto result = distance2_coloring(cluster, g);
  EXPECT_TRUE(graph::is_distance2_coloring(g, result.color));
  // Palette min(n, O(Delta^4)): Delta = 4 -> G^2 degree <= 16, fixed point
  // (2*16+k)^2 ~ 1369; at n = 300 the identity palette is already smaller.
  EXPECT_LE(result.num_colors, 300u);
  const Graph big = graph::random_regular(4000, 4, 3);
  const auto big_result = distance2_coloring(cluster, big);
  EXPECT_TRUE(graph::is_distance2_coloring(big, big_result.color));
  EXPECT_LE(big_result.num_colors, 1600u);  // (2*D+8)^2 for D = Delta^2
}

TEST(Coloring, PathGetsTinyPalette) {
  auto cluster = roomy_cluster();
  const Graph g = graph::path(512);
  const auto result = distance2_coloring(cluster, g);
  EXPECT_TRUE(graph::is_distance2_coloring(g, result.color));
  // G^2 of a path has degree <= 4: fixed point (2*4+3)^2 = 121.
  EXPECT_LE(result.num_colors, 128u);
}

TEST(Coloring, ChargesOLogStarRounds) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(400, 5, 3);
  const auto result = linial_coloring(cluster, g);
  EXPECT_LE(result.reduction_steps, 8u);  // log* 400 plus slack
  EXPECT_GE(cluster.metrics().rounds(), result.reduction_steps);
}

TEST(Neighborhoods, BallsAreCorrect) {
  auto cluster = roomy_cluster();
  const Graph g = graph::cycle(12);
  std::vector<bool> alive(12, true);
  const auto gather = gather_neighborhoods(cluster, g, alive, 2);
  for (NodeId v = 0; v < 12; ++v) {
    EXPECT_EQ(gather.ball_size[v], 5u);  // v, two each side
  }
  EXPECT_EQ(gather.max_ball, 5u);
}

TEST(Neighborhoods, RespectsAliveMaskAndRadius) {
  auto cluster = roomy_cluster();
  const Graph g = graph::path(10);
  std::vector<bool> alive(10, true);
  alive[5] = false;  // cuts the path
  const auto gather = gather_neighborhoods(cluster, g, alive, 10);
  // Node 0's ball stops at node 4.
  EXPECT_EQ(gather.ball_size[0], 5u);
  EXPECT_EQ(gather.ball_size[5], 0u);
}

TEST(Neighborhoods, ChargesLogRounds) {
  auto cluster = roomy_cluster();
  const Graph g = graph::cycle(32);
  std::vector<bool> alive(32, true);
  const auto g4 = gather_neighborhoods(cluster, g, alive, 4);
  EXPECT_EQ(g4.rounds_charged, 3u);  // ceil(log2 4) + 1
}

TEST(PhaseCompression, StageRemovesEdges) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(200, 4, 4);
  const auto coloring = distance2_coloring_raw(g);
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  hash::FunctionSequence sequence(family, 3, 1024);
  std::vector<bool> alive(g.num_nodes(), true);
  const auto outcome = run_stage(cluster, g, alive, coloring.color, sequence,
                                 /*budget=*/32);
  EXPECT_LT(outcome.edges_after, outcome.edges_before);
  EXPECT_FALSE(outcome.independent.empty());
  // The committed set is independent and consistent with `alive`.
  for (NodeId v : outcome.independent) {
    EXPECT_FALSE(alive[v]);
    for (NodeId u : g.neighbors(v)) EXPECT_FALSE(alive[u]);
  }
  std::vector<bool> in_set(g.num_nodes(), false);
  for (NodeId v : outcome.independent) in_set[v] = true;
  EXPECT_TRUE(graph::is_independent_set(g, in_set));
}

TEST(PhaseCompression, SimulationIsPureFunction) {
  const Graph g = graph::random_regular(100, 4, 5);
  const auto coloring = distance2_coloring_raw(g);
  hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
  hash::FunctionSequence sequence(family, 2, 64);
  std::vector<bool> alive(g.num_nodes(), true);
  const auto a = simulate_stage(g, alive, coloring.color, sequence, 17);
  const auto b = simulate_stage(g, alive, coloring.color, sequence, 17);
  EXPECT_EQ(a, b);
  // alive is untouched.
  EXPECT_TRUE(std::all_of(alive.begin(), alive.end(), [](bool x) { return x; }));
}

// The oracle's graph::square, whose max degree the coloring now counts per
// node without building G^2.
TEST(Square, PathGainsDistance2Edges) {
  const Graph p = graph::path(5);
  const Graph p2 = oracle::square(p);
  EXPECT_EQ(p2.num_edges(), 4u + 3u);  // dist-1 + dist-2 pairs
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_FALSE(p2.has_edge(0, 3));
}

TEST(Square, MaxDegreeBounded) {
  const Graph g = graph::random_regular(200, 4, 5);
  const Graph g2 = oracle::square(g);
  EXPECT_LE(g2.max_degree(), 4u + 4u * 3u + 4u);  // <= d + d(d-1) slack
  // A proper coloring of G^2 is a distance-2 coloring of G: check on a
  // trivially correct coloring by identity.
  std::vector<std::uint32_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  EXPECT_TRUE(graph::is_proper_coloring(g2, ids));
  EXPECT_TRUE(graph::is_distance2_coloring(g, ids));
}

/// Regular graphs of degree 3..12, path, cycle, gnm, power-law, a graph
/// with isolated nodes on both sides, and an 8-regular graph of 2^15 nodes
/// (many node blocks, and a palette that a radius-2 step still shrinks).
std::vector<Graph> oracle_graphs() {
  std::vector<Graph> out;
  for (std::uint32_t d = 3; d <= 12; ++d) {
    out.push_back(graph::random_regular(2000, d, 40 + d));
  }
  out.push_back(graph::path(3000));
  out.push_back(graph::cycle(2501));
  out.push_back(graph::gnm(3000, 6000, 7));
  out.push_back(graph::power_law(3000, 9000, 2.1, 8));
  out.push_back(graph::disjoint_union(
      Graph::from_edges(7, {}),
      graph::disjoint_union(graph::random_regular(600, 4, 9),
                            Graph::from_edges(25, {}))));
  out.push_back(graph::random_regular(1u << 15, 8, 10));
  return out;
}

TEST(LowDegOracle, ColoringMatchesAtEveryThreadCount) {
  const std::vector<exec::Executor> executors = {
      exec::Executor::with_threads(1), exec::Executor::with_threads(2),
      exec::Executor::with_threads(4)};
  const auto graphs = oracle_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto want1 = oracle::linial_coloring_raw(g);
    const auto want2 = oracle::distance2_coloring_raw(g);
    for (const exec::Executor& ex : executors) {
      SCOPED_TRACE(::testing::Message() << "graph " << i << " threads "
                                        << ex.threads());
      const auto got1 = linial_coloring_raw(g, ex);
      EXPECT_EQ(got1.color, want1.color);
      EXPECT_EQ(got1.num_colors, want1.num_colors);
      EXPECT_EQ(got1.reduction_steps, want1.reduction_steps);
      const auto got2 = distance2_coloring_raw(g, ex);
      EXPECT_EQ(got2.color, want2.color);
      EXPECT_EQ(got2.num_colors, want2.num_colors);
      EXPECT_EQ(got2.reduction_steps, want2.reduction_steps);
    }
  }
  // The large graph does take a radius-2 reduction step.
  EXPECT_GE(distance2_coloring_raw(graphs.back()).reduction_steps, 1u);
}

TEST(LowDegOracle, BallSizesMatchUnderDeadMask) {
  std::vector<std::unique_ptr<mpc::Cluster>> clusters;
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    mpc::ClusterConfig config;
    config.machine_space = 1 << 30;  // room for the power-law hub's ball
    config.num_machines = 1 << 4;
    config.threads = threads;
    clusters.push_back(std::make_unique<mpc::Cluster>(config));
  }
  const auto graphs = oracle_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    Rng rng(100 + i);
    std::vector<bool> alive(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      alive[v] = rng.next_below(5) != 0;
    }
    for (std::uint32_t radius : {1u, 2u, 3u}) {
      std::vector<std::uint32_t> want;
      for (const auto& ball : oracle::balls(g, alive, radius)) {
        want.push_back(static_cast<std::uint32_t>(ball.size()));
      }
      const std::uint64_t max_ball =
          *std::max_element(want.begin(), want.end());
      for (const auto& cluster : clusters) {
        SCOPED_TRACE(::testing::Message()
                     << "graph " << i << " radius " << radius << " threads "
                     << cluster->executor().threads());
        const auto got = gather_neighborhoods(*cluster, g, alive, radius);
        EXPECT_EQ(got.ball_size, want);
        EXPECT_EQ(got.max_ball, max_ball);
      }
    }
  }
}

/// run_stage must commit what the oracle would: the first candidate with
/// the fewest residual edges, counted by a scan of every edge.
TEST(LowDegOracle, StageMatches) {
  constexpr std::uint64_t kBudget = 16;
  const auto graphs = oracle_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    const auto coloring = distance2_coloring_raw(g);
    hash::SmallFamily family(std::max<std::uint32_t>(coloring.num_colors, 2));
    hash::FunctionSequence sequence(family, 3, 64);
    Rng rng(200 + i);
    std::vector<bool> alive(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      alive[v] = rng.next_below(4) != 0;
    }
    StageOutcome want;
    for (std::uint64_t t = 0; t < kBudget; ++t) {
      const std::uint64_t seq = sequence.diverse(t);
      const auto joined =
          oracle::simulate_stage(g, alive, coloring.color, sequence, seq);
      EXPECT_EQ(simulate_stage(g, alive, coloring.color, sequence, seq),
                joined);
      std::vector<bool> live = alive;
      for (NodeId v : joined) {
        live[v] = false;
        for (NodeId u : g.neighbors(v)) live[u] = false;
      }
      const auto after = graph::alive_edge_count(g, live);
      if (t == 0 || after < want.edges_after) {
        want.sequence_seed = seq;
        want.independent = joined;
        want.edges_after = after;
      }
    }
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      mpc::ClusterConfig config;
      config.machine_space = 1 << 20;
      config.num_machines = 1 << 4;
      config.threads = threads;
      mpc::Cluster cluster(config);
      std::vector<bool> committed = alive;
      const auto got = run_stage(cluster, g, committed, coloring.color,
                                 sequence, kBudget);
      EXPECT_EQ(got.sequence_seed, want.sequence_seed);
      EXPECT_EQ(got.independent, want.independent);
      EXPECT_EQ(got.edges_after, want.edges_after);
    }
  }
}

TEST(LowDegSolver, PhasesScaleInverselyWithLogDelta) {
  const auto l_small = phases_for(1 << 16, 2);
  const auto l_big = phases_for(1 << 16, 64);
  EXPECT_GT(l_small, l_big);
  EXPECT_GE(l_big, 1u);
}

TEST(LowDegSolver, MisValidOnBoundedDegree) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::random_regular(400, 6, seed);
    const auto result = lowdeg_mis(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
    EXPECT_GE(result.phases_per_stage, 1u);
    EXPECT_GT(result.colors, 0u);
  }
}

TEST(LowDegSolver, MisDeterministic) {
  const Graph g = graph::random_regular(300, 5, 3);
  const auto a = lowdeg_mis(g, LowDegConfig{});
  const auto b = lowdeg_mis(g, LowDegConfig{});
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.metrics.rounds(), b.metrics.rounds());
}

TEST(LowDegSolver, StageCountLogarithmicInDelta) {
  // Theorem 1 shape: stages = O(log Delta) once the O(log log n)
  // preprocessing is done. Generous constant at this scale.
  const Graph g = graph::random_regular(2048, 4, 4);
  const auto result = lowdeg_mis(g, LowDegConfig{});
  EXPECT_LE(result.stages, 40u);
}

TEST(LowDegSolver, StructuredFamilies) {
  for (const Graph& g : {graph::cycle(128), graph::path(128),
                         graph::grid(12, 12), graph::random_tree(128, 5)}) {
    const auto result = lowdeg_mis(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.in_set));
  }
}

TEST(LowDegSolver, EmptyAndEdgelessGraphs) {
  const Graph edgeless = Graph::from_edges(5, {});
  const auto result = lowdeg_mis(edgeless, LowDegConfig{});
  EXPECT_EQ(std::count(result.in_set.begin(), result.in_set.end(), true), 5);
}

TEST(LowDegSolver, MatchingViaLineGraph) {
  for (std::uint64_t seed : {1, 2}) {
    const Graph g = graph::random_regular(200, 5, seed + 10);
    const auto result = lowdeg_matching(g, LowDegConfig{});
    EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  }
}

TEST(LowDegSolver, MatchingOnPath) {
  const Graph g = graph::path(50);
  const auto result = lowdeg_matching(g, LowDegConfig{});
  EXPECT_TRUE(graph::is_maximal_matching(g, result.matching));
  EXPECT_GE(result.matching.size(), 17u);  // maximal matching of P50 >= 17
}

}  // namespace
}  // namespace dmpc::lowdeg
