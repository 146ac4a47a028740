// Unit tests for the sparsification pipeline: params, degree classes, good
// nodes (Lemma 3 / Corollaries 8 & 16), and the edge/node sparsifiers
// (§3.2 / §4.2 invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "hash/kwise.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/degree_classes.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage_objective.hpp"
#include "support/check.hpp"

namespace dmpc::sparsify {
namespace {

using graph::Graph;
using graph::NodeId;

mpc::Cluster roomy_cluster() {
  mpc::ClusterConfig config;
  config.machine_space = 1 << 16;
  config.num_machines = 1 << 10;
  return mpc::Cluster(config);
}

TEST(Params, ClassOfDegreeBands) {
  Params params;
  params.n = 65536;  // 2^16
  params.inv_delta = 8;
  // delta = 1/8 -> n^delta = 4. Classes: [1,4), [4,16), [16,64), ...
  EXPECT_EQ(params.class_of_degree(0), 0u);
  EXPECT_EQ(params.class_of_degree(1), 1u);
  EXPECT_EQ(params.class_of_degree(3), 1u);
  EXPECT_EQ(params.class_of_degree(4), 2u);
  EXPECT_EQ(params.class_of_degree(15), 2u);
  EXPECT_EQ(params.class_of_degree(16), 3u);
  EXPECT_EQ(params.class_of_degree(65535), 8u);
  EXPECT_EQ(params.class_of_degree(1u << 30), 8u);  // clamped to top class
}

TEST(Params, DerivedQuantities) {
  Params params;
  params.n = 65536;
  params.inv_delta = 8;
  EXPECT_DOUBLE_EQ(params.delta(), 0.125);
  EXPECT_NEAR(params.sample_probability(), 0.25, 1e-12);
  EXPECT_EQ(params.group_size(), 256u);       // n^{4 delta} = 4^4
  EXPECT_EQ(params.degree_cap(), 512u);       // 2 n^{4 delta}
  EXPECT_EQ(params.stages_for_class(3), 0u);
  EXPECT_EQ(params.stages_for_class(4), 0u);
  EXPECT_EQ(params.stages_for_class(5), 1u);
  EXPECT_EQ(params.stages_for_class(8), 4u);
  EXPECT_DOUBLE_EQ(params.class_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(params.class_lower(3), 16.0);
}

TEST(DegreeClasses, MassAccounting) {
  Params params;
  params.n = 65536;
  params.inv_delta = 8;
  const std::vector<std::uint32_t> degrees{0, 1, 3, 4, 20, 100};
  const auto classes = classify(params, degrees);
  EXPECT_EQ(classes.class_of[0], 0u);
  EXPECT_EQ(classes.class_of[1], 1u);
  EXPECT_EQ(classes.class_of[4], 3u);
  EXPECT_EQ(classes.degree_mass[1], 4u);    // 1 + 3
  EXPECT_EQ(classes.degree_mass[2], 4u);
  EXPECT_EQ(classes.degree_mass[3], 20u);
  EXPECT_EQ(classes.degree_mass[4], 100u);
}

TEST(GoodNodes, MatchingSelectionSatisfiesCorollary8) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(400, 3200, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_matching_good_set(cluster, params, g, alive);
    // Corollary 8 (already asserted inside; re-verify the arithmetic here):
    EXPECT_GE(2 * params.inv_delta * good.b_degree_mass, good.alive_edges);
    // Every E_0 edge touches a B node, and X(v) lists are within E_0.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) {
        EXPECT_TRUE(good.xv[v].empty());
        continue;
      }
      const auto deg = g.degree(v);
      EXPECT_GE(3 * good.xv[v].size(), deg);
      for (auto e : good.xv[v]) EXPECT_TRUE(good.in_E0[e]);
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (good.in_E0[e]) {
        EXPECT_TRUE(good.in_B[g.edge(e).u] || good.in_B[g.edge(e).v]);
      }
    }
  }
}

TEST(GoodNodes, MisSelectionSatisfiesCorollary16) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {4, 5}) {
    const Graph g = graph::power_law(500, 3000, 2.5, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_mis_good_set(cluster, params, g, alive);
    EXPECT_GE(2 * params.inv_delta * good.b_degree_mass, good.alive_edges);
    // Q_0 is exactly the chosen degree class.
    const auto deg = graph::alive_degrees(g, alive);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (good.in_Q0[v]) {
        EXPECT_EQ(params.class_of_degree(deg[v]), good.cls);
      }
    }
  }
}

TEST(GoodNodes, RespectsAliveMask) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(200, 1000, 7);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < 100; ++v) alive[v] = false;
  const auto good = select_matching_good_set(cluster, params, g, alive);
  for (NodeId v = 0; v < 100; ++v) EXPECT_FALSE(good.in_B[v]);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (good.in_E0[e]) {
      EXPECT_TRUE(alive[g.edge(e).u] && alive[g.edge(e).v]);
    }
  }
}

TEST(EdgeSparsifier, LowClassPassesThrough) {
  auto cluster = roomy_cluster();
  // Bounded-degree graph: the chosen class is <= 4, so E* = E_0.
  const Graph g = graph::random_regular(300, 6, 8);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  ASSERT_LE(good.cls, 4u);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  EXPECT_EQ(sparse.stages.size(), 0u);
  EXPECT_EQ(sparse.in_Estar, good.in_E0);
}

TEST(EdgeSparsifier, HighClassReducesDegreesBelowCap) {
  auto cluster = roomy_cluster();
  // Dense-ish random graph forces a high class at small inv_delta scale.
  const Graph g = graph::gnm(512, 16000, 9);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;  // n^delta ~ 2.18, cap = 2 * n^{1/2} ~ 45
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  if (good.cls > 4) {
    EXPECT_GE(sparse.stages.size(), 1u);
  }
  EXPECT_LE(sparse.max_degree, params.degree_cap());
  // E* is a subset of E_0 and xv_star lists agree with the mask.
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (sparse.in_Estar[e]) {
      EXPECT_TRUE(good.in_E0[e]);
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (auto e : sparse.xv_star[v]) {
      EXPECT_TRUE(sparse.in_Estar[e]);
    }
  }
  // Never sparsified to empty.
  EXPECT_GT(std::count(sparse.in_Estar.begin(), sparse.in_Estar.end(), true),
            0);
}

TEST(EdgeSparsifier, StageReportsAreCoherent) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 10);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_edges(cluster, params, g, good, SparsifyConfig{});
  for (std::size_t j = 0; j < sparse.stages.size(); ++j) {
    const auto& report = sparse.stages[j];
    EXPECT_EQ(report.stage, j + 1);
    EXPECT_LE(report.edges_after, report.edges_before);
    EXPECT_GE(report.window_multiplier, 3.0);  // default slack factor
    EXPECT_GT(report.machines, 0u);
    EXPECT_GT(report.trials, 0u);
  }
}

TEST(NodeSparsifier, ReducesQDegreesBelowCap) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 11);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  const auto sparse = sparsify_nodes(cluster, params, g, alive, good,
                                     SparsifyConfig{});
  EXPECT_LE(sparse.max_q_degree, params.degree_cap());
  // Q' never empty and Q' subset of Q_0.
  std::size_t q_count = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (sparse.in_Qprime[v]) {
      ++q_count;
      EXPECT_TRUE(good.in_Q0[v]);
    }
  }
  EXPECT_GT(q_count, 0u);
}

// Regression: the degenerate all-keep polynomial (seed 0 = constant hash)
// must never be committed — without the global sampling window every stage
// kept 100% of the edges and the extra-stage loop spun uselessly (see
// DESIGN.md §2.0). Every committed stage must strictly shrink its edge set.
TEST(EdgeSparsifier, StagesStrictlyShrink) {
  auto cluster = roomy_cluster();
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(256, 2048, seed);
    Params params;
    params.n = g.num_nodes();
    params.inv_delta = 16;  // n^delta ~ 1.4: many stages, tiny windows
    std::vector<bool> alive(g.num_nodes(), true);
    const auto good = select_matching_good_set(cluster, params, g, alive);
    const auto sparse = sparsify_edges(cluster, params, g, good,
                                       SparsifyConfig{});
    for (const auto& report : sparse.stages) {
      EXPECT_LT(report.edges_after, report.edges_before)
          << "stage " << report.stage << " committed a no-op seed";
    }
  }
}

TEST(NodeSparsifier, StagesStrictlyShrink) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 4);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 16;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  const auto sparse =
      sparsify_nodes(cluster, params, g, alive, good, SparsifyConfig{});
  // Q strictly shrinks stage over stage (the node-side analogue).
  std::size_t prev = 0;
  for (bool b : good.in_Q0) prev += b;
  (void)prev;
  for (const auto& report : sparse.stages) {
    EXPECT_GT(report.machines, 0u);
  }
  std::size_t q_size = 0;
  for (bool b : sparse.in_Qprime) q_size += b;
  if (!sparse.stages.empty()) {
    std::size_t q0_size = 0;
    for (bool b : good.in_Q0) q0_size += b;
    EXPECT_LT(q_size, q0_size);
  }
}

TEST(NodeSparsifier, LowClassKeepsQ0) {
  auto cluster = roomy_cluster();
  const Graph g = graph::random_regular(300, 6, 12);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_mis_good_set(cluster, params, g, alive);
  ASSERT_LE(good.cls, 4u);
  const auto sparse = sparsify_nodes(cluster, params, g, alive, good,
                                     SparsifyConfig{});
  EXPECT_EQ(sparse.stages.size(), 0u);
  EXPECT_EQ(sparse.in_Qprime, good.in_Q0);
}

// ---- Stage objectives: position-indexed windows vs. a brute-force recount ----
//
// The stage objectives hash each distinct point of L_{j-1} once and read
// window items through positions. Each evaluate(seed) must equal, exactly, a
// recount over the original item lists with family.at(seed).raw(item) — for
// the initial window bounds and for escalated (doubled) ones.

/// One original window: its items (node or edge ids) and, for mass windows,
/// the aligned weights.
struct RawWindow {
  std::vector<std::uint64_t> items;
  std::vector<double> weights;
};

/// 256 decorrelated seeds (the sparsifiers' stride walk).
std::vector<std::uint64_t> probe_seeds(const hash::KWiseFamily& family) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t t = 0; t < 256; ++t) {
    const __uint128_t pos =
        static_cast<__uint128_t>(t) * 0xBF58476D1CE4E5B9ULL +
        0x9E3779B97F4A7C15ULL;
    seeds.push_back(static_cast<std::uint64_t>(pos % family.seed_count()));
  }
  return seeds;
}

struct RecountTally {
  std::uint64_t failing_probes = 0;        ///< Probes with a failing window.
  std::uint64_t failing_mass_windows = 0;  ///< Failing kMass verdicts.
};

double brute_force(const hash::KWiseFamily& family, std::uint64_t seed,
                   std::uint64_t cutoff, const StageWindows& windows,
                   const std::vector<RawWindow>& raw, RecountTally& tally) {
  const auto fn = family.at(seed);
  std::uint64_t good = 0;
  for (std::size_t o = 0; o < raw.size(); ++o) {
    const StageWindow& w = windows.owners[o];
    if (w.kind == WindowKind::kMass) {
      double mass = 0.0;
      for (std::size_t i = 0; i < raw[o].items.size(); ++i) {
        if (fn.raw(raw[o].items[i]) < cutoff) mass += raw[o].weights[i];
      }
      if (mass >= w.w_lo) {
        ++good;
      } else {
        ++tally.failing_mass_windows;
      }
    } else {
      std::uint64_t kept = 0;
      for (std::uint64_t x : raw[o].items) {
        if (fn.raw(x) < cutoff) ++kept;
      }
      if (kept >= w.lo && kept <= w.hi) ++good;
    }
  }
  return static_cast<double>(good);
}

/// Checks windows against the original lists, then evaluate(seed) against
/// the brute-force recount over 256 seeds at slack multipliers 0.25 and its
/// escalations 0.5 and 1 — narrow enough that windows fail on some seeds.
/// Returns how often windows failed, so callers can assert they bite.
RecountTally expect_objective_matches_recount(
    const hash::KWiseFamily& family, double q, StageWindows& windows,
    const std::vector<RawWindow>& raw, bool sorted_items) {
  RecountTally tally;
  EXPECT_EQ(windows.owners.size(), raw.size());
  if (windows.owners.size() != raw.size()) return tally;
  for (std::size_t o = 0; o < raw.size(); ++o) {
    const StageWindow& w = windows.owners[o];
    std::vector<std::uint64_t> resolved;
    for (std::uint64_t i = w.begin; i < w.end; ++i) {
      resolved.push_back(windows.universe[windows.items[i]]);
    }
    std::vector<std::uint64_t> want = raw[o].items;
    if (sorted_items) {
      std::sort(resolved.begin(), resolved.end());
      std::sort(want.begin(), want.end());
    }
    EXPECT_EQ(resolved, want) << "window " << o;
  }
  const auto cutoff =
      static_cast<std::uint64_t>(q * static_cast<double>(family.p()));
  const StageObjective objective(family, cutoff, windows);
  EXPECT_EQ(objective.point_count(), windows.universe.size());
  for (double mult : {0.25, 0.5, 1.0}) {
    // Escalation rewrites the bounds in place under the bound objective.
    for (StageWindow& w : windows.owners) set_bounds(w, windows, q, mult);
    for (std::uint64_t seed : probe_seeds(family)) {
      const double value = objective.evaluate(seed);
      EXPECT_EQ(value, brute_force(family, seed, cutoff, windows, raw, tally))
          << "seed " << seed << " mult " << mult;
      if (value < static_cast<double>(raw.size())) ++tally.failing_probes;
    }
  }
  return tally;
}

TEST(StageObjective, NodeWindowsMatchBruteForceRecount) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(400, 4800, 21);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) alive[v] = false;
  const auto good = select_mis_good_set(cluster, params, g, alive);
  const auto deg = graph::alive_degrees(g, alive);
  const double q = params.sample_probability();
  std::vector<std::uint64_t> q_counts;
  StageWindows windows = node_stage_windows(g, alive, good.in_Q0, good.in_B,
                                            deg, q, 0.25, q_counts);
  // The original lists: Q-neighbours of every Q-node, then the 1/d(u)
  // weighted Q-neighbours of every B-node, then Q itself.
  auto in_q = [&](NodeId u) { return alive[u] && good.in_Q0[u]; };
  std::vector<RawWindow> raw;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v] || !(pass == 0 ? good.in_Q0[v] : good.in_B[v])) continue;
      RawWindow w;
      for (NodeId u : g.neighbors(v)) {
        if (!in_q(u)) continue;
        w.items.push_back(u);
        w.weights.push_back(1.0 / static_cast<double>(deg[u]));
      }
      if (pass == 0) {
        EXPECT_EQ(q_counts[v], w.items.size());
      }
      if (!w.items.empty()) raw.push_back(std::move(w));
    }
  }
  RawWindow all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_q(v)) all.items.push_back(v);
  }
  raw.push_back(all);
  EXPECT_EQ(windows.universe, all.items);
  hash::KWiseFamily family(g.num_nodes(), g.num_nodes(), 4);
  const auto tally = expect_objective_matches_recount(
      family, q, windows, raw, /*sorted_items=*/false);
  EXPECT_GT(tally.failing_probes, 0u);
  EXPECT_GT(tally.failing_mass_windows, 0u);
}

TEST(StageObjective, EdgeWindowsMatchBruteForceRecount) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(300, 2400, 22);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  std::vector<bool> alive(g.num_nodes(), true);
  const auto good = select_matching_good_set(cluster, params, g, alive);
  const double q = params.sample_probability();
  std::vector<std::uint64_t> degree_counts;
  StageWindows windows = edge_stage_windows(g, good.in_E0, good.in_B, good.xv,
                                            q, 0.25, degree_counts);
  // The original lists: every node's incident E_0 edges, then X(v) for
  // v in B, then E_0 itself.
  std::vector<RawWindow> raw;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    RawWindow w;
    for (graph::EdgeId e : g.incident_edges(v)) {
      if (good.in_E0[e]) w.items.push_back(e);
    }
    EXPECT_EQ(degree_counts[v], w.items.size());
    if (!w.items.empty()) raw.push_back(std::move(w));
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!good.in_B[v] || good.xv[v].empty()) continue;
    raw.push_back({{good.xv[v].begin(), good.xv[v].end()}, {}});
  }
  RawWindow all;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (good.in_E0[e]) all.items.push_back(e);
  }
  raw.push_back(all);
  EXPECT_EQ(windows.universe, all.items);
  hash::KWiseFamily family(g.num_edges(), g.num_edges(), 4);
  const auto tally = expect_objective_matches_recount(
      family, q, windows, raw, /*sorted_items=*/true);
  EXPECT_GT(tally.failing_probes, 0u);
}

TEST(StageObjective, EdgeWindowItemOutsideUniverseThrows) {
  const Graph g = graph::gnm(64, 256, 5);
  std::vector<bool> in_E(g.num_edges(), true);
  in_E[3] = false;
  std::vector<bool> in_B(g.num_nodes(), false);
  std::vector<std::vector<graph::EdgeId>> xv(g.num_nodes());
  in_B[g.edge(3).u] = true;
  xv[g.edge(3).u] = {3};  // X(v) must lie in E_{j-1}
  std::vector<std::uint64_t> counts;
  EXPECT_THROW(edge_stage_windows(g, in_E, in_B, xv, 0.25, 3.0, counts),
               CheckFailure);
}

}  // namespace
}  // namespace dmpc::sparsify
