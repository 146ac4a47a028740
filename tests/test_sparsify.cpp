// Unit tests for the sparsification pipeline: params, degree classes, good
// nodes (Lemma 3 / Corollaries 8 & 16), and the edge/node sparsifiers
// (§3.2 / §4.2 invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/residual.hpp"
#include "hash/kwise.hpp"
#include "matching/det_matching.hpp"
#include "mpc/cluster.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "sparsify/degree_classes.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage_objective.hpp"
#include "sparsify_oracle.hpp"
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
    const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
    const auto good = select_matching_good_set(cluster, params, residual);
    // Corollary 8 (already asserted inside; re-verify the arithmetic here):
    EXPECT_GE(2 * params.inv_delta * good.b_degree_mass, good.alive_edges);
    // Every E_0 edge touches a B node, and X(v) lists are within E_0.
    ASSERT_EQ(good.xv.size(), good.b_nodes.size());
    const auto in_B = [&](LocalId v) {
      return std::binary_search(good.b_nodes.begin(), good.b_nodes.end(), v);
    };
    for (std::size_t i = 0; i < good.b_nodes.size(); ++i) {
      const NodeId v = residual.node_id(good.b_nodes[i]);
      EXPECT_GE(3 * good.xv[i].size(), g.degree(v));
      for (auto e : good.xv[i]) {
        EXPECT_TRUE(std::binary_search(good.e0.begin(), good.e0.end(), e));
      }
    }
    for (LocalId e : good.e0) {
      EXPECT_TRUE(in_B(residual.edge(e).u) || in_B(residual.edge(e).v));
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
  const graph::Residual residual(g, alive);
  const auto good = select_matching_good_set(cluster, params, residual);
  for (LocalId v : good.b_nodes) EXPECT_TRUE(alive[residual.node_id(v)]);
  for (LocalId e : good.e0) {
    const graph::Edge& ends = g.edge(residual.edge_id(e));
    EXPECT_TRUE(alive[ends.u] && alive[ends.v]);
  }
}

TEST(EdgeSparsifier, LowClassPassesThrough) {
  auto cluster = roomy_cluster();
  // Bounded-degree graph: the chosen class is <= 4, so E* = E_0.
  const Graph g = graph::random_regular(300, 6, 8);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
  const auto good = select_matching_good_set(cluster, params, residual);
  ASSERT_LE(good.cls, 4u);
  const auto sparse =
      sparsify_edges(cluster, params, g, residual, good, SparsifyConfig{});
  EXPECT_EQ(sparse.stages.size(), 0u);
  EXPECT_EQ(sparse.estar, good.e0);
}

TEST(EdgeSparsifier, HighClassReducesDegreesBelowCap) {
  auto cluster = roomy_cluster();
  // Dense-ish random graph forces a high class at small inv_delta scale.
  const Graph g = graph::gnm(512, 16000, 9);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;  // n^delta ~ 2.18, cap = 2 * n^{1/2} ~ 45
  const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
  const auto good = select_matching_good_set(cluster, params, residual);
  const auto sparse =
      sparsify_edges(cluster, params, g, residual, good, SparsifyConfig{});
  if (good.cls > 4) {
    EXPECT_GE(sparse.stages.size(), 1u);
  }
  EXPECT_LE(sparse.max_degree, params.degree_cap());
  // E* is a subset of E_0 and the xv_star lists lie in E*.
  EXPECT_TRUE(std::includes(good.e0.begin(), good.e0.end(),
                            sparse.estar.begin(), sparse.estar.end()));
  ASSERT_EQ(sparse.xv_star.size(), good.b_nodes.size());
  for (std::size_t i = 0; i < sparse.xv_star.size(); ++i) {
    for (auto e : sparse.xv_star[i]) {
      EXPECT_TRUE(
          std::binary_search(sparse.estar.begin(), sparse.estar.end(), e));
    }
  }
  // Never sparsified to empty.
  EXPECT_FALSE(sparse.estar.empty());
}

TEST(EdgeSparsifier, StageReportsAreCoherent) {
  auto cluster = roomy_cluster();
  const Graph g = graph::gnm(512, 16000, 10);
  Params params;
  params.n = g.num_nodes();
  params.inv_delta = 8;
  const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
  const auto good = select_matching_good_set(cluster, params, residual);
  const auto sparse =
      sparsify_edges(cluster, params, g, residual, good, SparsifyConfig{});
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
    const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
    const auto good = select_matching_good_set(cluster, params, residual);
    const auto sparse = sparsify_edges(cluster, params, g, residual, good,
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
  for (NodeId v = 0; v < g.num_nodes(); v += 5) alive[v] = false;
  const graph::Residual residual(g, alive);
  const auto good = select_matching_good_set(cluster, params, residual);
  const double q = params.sample_probability();
  std::vector<std::uint64_t> degree_counts;
  StageWindows windows = edge_stage_windows(
      residual, good.e0, good.b_nodes, good.xv, q, 0.25, degree_counts);
  // The original lists, in input-graph edge ids: every live node's incident
  // E_0 edges, then X(v) for v in B, then E_0 itself.
  RawWindow all;
  for (LocalId e : good.e0) all.items.push_back(residual.edge_id(e));
  const auto in_e0 = [&](graph::EdgeId e) {
    return std::binary_search(all.items.begin(), all.items.end(), e);
  };
  std::vector<RawWindow> raw;
  ASSERT_EQ(degree_counts.size(), residual.num_nodes());
  for (LocalId v = 0; v < residual.num_nodes(); ++v) {
    RawWindow w;
    for (graph::EdgeId e : g.incident_edges(residual.node_id(v))) {
      if (in_e0(e)) w.items.push_back(e);
    }
    EXPECT_EQ(degree_counts[v], w.items.size());
    if (!w.items.empty()) raw.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < good.xv.size(); ++i) {
    if (good.xv[i].empty()) continue;
    RawWindow w;
    for (LocalId e : good.xv[i]) w.items.push_back(residual.edge_id(e));
    raw.push_back(std::move(w));
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
  const graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
  std::vector<LocalId> edges;
  for (LocalId e = 0; e < residual.num_edges(); ++e) {
    if (e != 3) edges.push_back(e);
  }
  const std::vector<LocalId> b_nodes = {residual.edge(3).u};
  graph::CsrLists xv;
  xv.items = {3};  // X(v) must lie in E_{j-1}
  xv.offsets.push_back(1);
  std::vector<std::uint64_t> counts;
  EXPECT_THROW(
      edge_stage_windows(residual, edges, b_nodes, xv, 0.25, 3.0, counts),
      CheckFailure);
}


// ---- The residual port against the mask-based oracle ----
//
// select_matching_good_set and sparsify_edges read a graph::Residual and
// keep every set as an ascending residual-id list; tests/sparsify_oracle
// holds the versions they replaced, which scan the input graph through
// masks. On live graphs taken from real matching runs, both must agree on
// every output, in input-graph ids, and charge the same model cost.

std::vector<graph::EdgeId> original_edges(const graph::Residual& residual,
                                          std::span<const LocalId> edges) {
  std::vector<graph::EdgeId> out;
  for (LocalId e : edges) out.push_back(residual.edge_id(e));
  return out;
}

template <typename Mask>
std::vector<std::uint64_t> set_bits(const Mask& mask) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) out.push_back(i);
  }
  return out;
}

/// Alive masks after the first k iterations of det_maximal_matching on g,
/// one per k in `iterations`.
std::vector<std::vector<bool>> alive_after(
    const Graph& g, const std::vector<std::uint64_t>& iterations) {
  const auto run = matching::det_maximal_matching(g, {});
  std::vector<std::vector<bool>> masks;
  for (std::uint64_t k : iterations) {
    EXPECT_LE(k, run.iterations);
    std::vector<bool> alive(g.num_nodes(), true);
    std::uint64_t matched = 0;
    for (std::uint64_t i = 0; i < k && i < run.reports.size(); ++i) {
      matched += run.reports[i].matched_pairs;
    }
    for (std::uint64_t i = 0; i < matched; ++i) {
      alive[g.edge(run.matching[i]).u] = false;
      alive[g.edge(run.matching[i]).v] = false;
    }
    masks.push_back(std::move(alive));
  }
  return masks;
}

void expect_same_good_set(const graph::Residual& residual,
                          const oracle::MaskGoodSet& want,
                          const MatchingGoodSet& got) {
  EXPECT_EQ(got.cls, want.cls);
  EXPECT_EQ(got.b_degree_mass, want.b_degree_mass);
  EXPECT_EQ(got.alive_edges, want.alive_edges);
  std::vector<std::uint64_t> b;
  for (LocalId v : got.b_nodes) b.push_back(residual.node_id(v));
  EXPECT_EQ(b, set_bits(want.in_B));
  const auto e0 = original_edges(residual, got.e0);
  EXPECT_EQ(std::vector<std::uint64_t>(e0.begin(), e0.end()),
            set_bits(want.in_E0));
  ASSERT_EQ(got.xv.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(original_edges(residual, got.xv[i]), want.xv[b[i]])
        << "X(v) of node " << b[i];
  }
}

void expect_same_sparsify(const graph::Residual& residual,
                          const MatchingGoodSet& good,
                          const oracle::MaskSparsifyResult& want,
                          const EdgeSparsifyResult& got) {
  const auto estar = original_edges(residual, got.estar);
  EXPECT_EQ(std::vector<std::uint64_t>(estar.begin(), estar.end()),
            set_bits(want.in_Estar));
  ASSERT_EQ(got.xv_star.size(), good.b_nodes.size());
  for (std::size_t i = 0; i < good.b_nodes.size(); ++i) {
    const NodeId v = residual.node_id(good.b_nodes[i]);
    EXPECT_EQ(original_edges(residual, got.xv_star[i]), want.xv_star[v])
        << "X(v) ∩ E* of node " << v;
  }
  EXPECT_EQ(got.max_degree, want.max_degree);
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t j = 0; j < got.stages.size(); ++j) {
    SCOPED_TRACE("stage " + std::to_string(j + 1));
    const StageReport& a = got.stages[j];
    const StageReport& b = want.stages[j];
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.window_multiplier, b.window_multiplier);
    EXPECT_EQ(a.machines, b.machines);
    EXPECT_EQ(a.edges_before, b.edges_before);
    EXPECT_EQ(a.edges_after, b.edges_after);
    EXPECT_EQ(a.max_degree_after, b.max_degree_after);
    EXPECT_EQ(a.invariant_degree_ratio, b.invariant_degree_ratio);
    EXPECT_EQ(a.invariant_xv_ratio, b.invariant_xv_ratio);
  }
}

TEST(ResidualPort, MatchesMaskOracleOnLiveGraphs) {
  std::uint64_t runs = 0, staged_runs = 0, extra_stage_runs = 0;
  for (const NodeId n : {NodeId{1} << 13, NodeId{1} << 14}) {
    const Graph g = graph::power_law(n, 6 * static_cast<graph::EdgeId>(n),
                                     2.1, 7 + n);
    const auto masks = alive_after(g, {0, 1, 3});
    // eps = 1/3 (delta = 1/24) plans more stages per class, and at n = 2^13
    // after one iteration needs an extra one.
    for (std::size_t k = 0; k < masks.size(); ++k) {
      const graph::Residual residual(g, masks[k]);
      for (const auto& [eps, threads] :
           {std::pair{0.5, 1u}, std::pair{0.5, 4u}, std::pair{1.0 / 3, 1u},
            std::pair{1.0 / 3, 4u}}) {
        SCOPED_TRACE("n " + std::to_string(n) + " mask " + std::to_string(k) +
                     " eps " + std::to_string(eps) + " threads " +
                     std::to_string(threads));
        const Params params = params_for(eps, g.num_nodes());
        mpc::ClusterConfig config;
        config.machine_space = 1 << 16;
        config.num_machines = 1 << 10;
        config.threads = threads;
        mpc::Cluster oracle_cluster(config);
        mpc::Cluster cluster(config);
        const auto want_good = oracle::select_matching_good_set(
            oracle_cluster, params, g, masks[k]);
        const auto good = select_matching_good_set(cluster, params, residual);
        expect_same_good_set(residual, want_good, good);
        const auto want = oracle::sparsify_edges(oracle_cluster, params, g,
                                                 want_good, SparsifyConfig{});
        const auto got = sparsify_edges(cluster, params, g, residual, good,
                                        SparsifyConfig{});
        expect_same_sparsify(residual, good, want, got);
        EXPECT_EQ(cluster.metrics().rounds(), oracle_cluster.metrics().rounds());
        EXPECT_EQ(cluster.metrics().total_communication(),
                  oracle_cluster.metrics().total_communication());
        EXPECT_EQ(cluster.metrics().peak_machine_load(),
                  oracle_cluster.metrics().peak_machine_load());
        ++runs;
        staged_runs += got.stages.empty() ? 0 : 1;
        extra_stage_runs +=
            got.stages.size() > params.stages_for_class(good.cls) ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(runs, 24u);
  EXPECT_GT(staged_runs, 0u);
  EXPECT_GT(extra_stage_runs, 0u);
}

// The residual the matching loop shrinks in place equals one built afresh
// from the alive mask, on a graph whose CSR spans many storage extents.
TEST(ResidualPort, RemoveEqualsFreshBuildOnShardedGraph) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "dmpc_sparsify_residual_shards";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Graph memory = graph::power_law(1 << 13, 6 << 13, 2.1, 5);
  graph::write_edge_list_file(memory, (dir / "g.txt").string());
  mpc::ShardBuildOptions options;
  options.shard_words = 4096;
  mpc::shard_build((dir / "g.txt").string(), (dir / "shards").string(),
                   options);
  const auto storage = mpc::MmapShardStorage::open((dir / "shards").string());
  const Graph& g = storage->graph();
  ASSERT_GT(g.extents().size(), 1u);

  const auto masks = alive_after(g, {0, 1, 3});
  graph::Residual residual(g, masks[0]);
  EXPECT_TRUE(residual == graph::Residual(memory, masks[0]));
  for (std::size_t k = 1; k < masks.size(); ++k) {
    std::vector<std::uint8_t> removed(residual.num_nodes(), 0);
    for (LocalId v = 0; v < residual.num_nodes(); ++v) {
      removed[v] = masks[k][residual.node_id(v)] ? 0 : 1;
    }
    residual.remove(removed);
    const graph::Residual fresh(g, masks[k]);
    EXPECT_TRUE(residual == fresh) << "after mask " << k;
    EXPECT_LT(residual.num_edges(), graph::Residual(g, masks[k - 1]).num_edges());
  }
  // Ids stay ascending and every local edge is the input edge it names.
  for (LocalId e = 0; e < residual.num_edges(); ++e) {
    const graph::Edge& ends = g.edge(residual.edge_id(e));
    EXPECT_EQ(residual.node_id(residual.edge(e).u), ends.u);
    EXPECT_EQ(residual.node_id(residual.edge(e).v), ends.v);
    if (e > 0) EXPECT_LT(residual.edge_id(e - 1), residual.edge_id(e));
  }
  std::filesystem::remove_all(dir);
}

// A space violation in the §3.3 gather names the input-graph node, not its
// residual id.
TEST(ResidualPort, GatherViolationNamesOriginalNode) {
  const Graph g = graph::power_law(1 << 12, 6 << 12, 2.1, 9);
  std::vector<bool> alive(g.num_nodes(), true);
  for (NodeId v = 0; v < g.num_nodes(); v += 3) alive[v] = false;
  const graph::Residual residual(g, alive);
  const Params params = params_for(0.5, g.num_nodes());
  auto cluster = roomy_cluster();
  const auto good = select_matching_good_set(cluster, params, residual);
  const auto sparse = sparsify_edges(cluster, params, g, residual, good,
                                     SparsifyConfig{});
  // 2-hop words of each B node, recounted in input-graph ids.
  std::vector<std::uint32_t> estar_degree(g.num_nodes(), 0);
  for (LocalId e : sparse.estar) {
    ++estar_degree[g.edge(residual.edge_id(e)).u];
    ++estar_degree[g.edge(residual.edge_id(e)).v];
  }
  std::vector<std::uint64_t> words;
  for (LocalId b : good.b_nodes) {
    const NodeId v = residual.node_id(b);
    std::uint64_t w = estar_degree[v];
    for (LocalId e : sparse.estar) {
      const graph::Edge& ends = g.edge(residual.edge_id(e));
      if (ends.u == v) w += estar_degree[ends.v];
      if (ends.v == v) w += estar_degree[ends.u];
    }
    words.push_back(2 * w);
  }
  // The first B node whose residual id differs from its node id, and a
  // space that only its neighborhood (and larger ones) exceed.
  std::size_t first = 0;
  while (first < good.b_nodes.size() &&
         residual.node_id(good.b_nodes[first]) == good.b_nodes[first]) {
    ++first;
  }
  ASSERT_LT(first, good.b_nodes.size());
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < first; ++i) below = std::max(below, words[i]);
  ASSERT_GT(words[first], below);
  mpc::ClusterConfig config;
  config.machine_space = std::max(below, words[first] - 1);
  config.num_machines = 1 << 10;
  mpc::Cluster tight(config);
  const LocalId local = good.b_nodes[first];
  const NodeId original = residual.node_id(local);
  try {
    (void)matching::gather_two_hop(tight, residual, good.b_nodes, sparse.estar);
    FAIL() << "the gather passed a space of " << config.machine_space;
  } catch (const CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("of node " + std::to_string(original) + ":"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("of node " + std::to_string(local) + ":"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace dmpc::sparsify
