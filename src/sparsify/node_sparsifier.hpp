// Deterministic node sparsification (§4.2): from Q_0 to Q' in O(1) stages.
//
// Stage j sub-samples Q_{j-1} at rate n^{-delta} by hashing *node* ids.
// Type-Q machines (chunks of each Q-node's Q-neighbor list) enforce the
// degree upper bound (Invariant (i), Lemma 17); type-B machines (chunks of
// each B-node's Q-neighbor list, weighted by 1/d(u)) enforce the harmonic
// lower bound sum_{u in Q_j ~ v} 1/d(u) >= (delta - o(1)) / (3 n^{delta j})
// (Invariant (ii), Lemma 18). Same finite-n window adaptation as the edge
// sparsifier (see edge_sparsifier.hpp / DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/edge_sparsifier.hpp"  // SparsifyConfig, StageReport
#include "sparsify/good_nodes.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage_objective.hpp"

namespace dmpc::sparsify {

struct NodeSparsifyResult {
  std::vector<bool> in_Qprime;        ///< Node mask of Q'.
  std::vector<StageReport> stages;
  std::uint32_t max_q_degree = 0;     ///< Max degree inside Q'.
};

/// One stage's goodness windows over Q_{j-1} = {v : alive[v] && in_Q[v]},
/// as the stage's seed objective (StageObjective) reads them:
///  - a type-Q upper COUNT window per Q-node over its Q-neighbours
///    (Lemma 17 / Invariant (i)); `q_counts[v]` receives its size;
///  - a type-B 1/deg[u] MASS window per B-node over its Q-neighbours
///    (Lemma 18 / Invariant (ii)), in neighbour order;
///  - one global two-sided COUNT window over Q_{j-1}, which rejects the
///    degenerate all-keep / all-drop seeds at finite n.
/// Empty windows are dropped. Exposed for tests.
StageWindows node_stage_windows(const graph::Graph& g,
                                const std::vector<bool>& alive,
                                const std::vector<bool>& in_Q,
                                const std::vector<bool>& in_B,
                                const std::vector<std::uint32_t>& deg,
                                double q, double mult,
                                std::vector<std::uint64_t>& q_counts);

/// Run §4.2 on the chosen good set; `alive` masks the current graph.
NodeSparsifyResult sparsify_nodes(mpc::Cluster& cluster, const Params& params,
                                  const graph::Graph& g,
                                  const std::vector<bool>& alive,
                                  const MisGoodSet& good,
                                  const SparsifyConfig& config);

}  // namespace dmpc::sparsify
