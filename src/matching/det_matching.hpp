// Deterministic maximal matching in O(log n) MPC rounds (§3, Theorem 7).
//
// Per iteration (Algorithm 2):
//   1. select good nodes B and edge set E_0 (good_nodes.hpp, Corollary 8);
//   2. sparsify E_0 to E* so every degree is O(n^{4 delta})
//      (edge_sparsifier.hpp, Invariants (i)/(ii));
//   3. gather 2-hop neighborhoods of B-nodes in E* onto machines
//      (space O(n^{8 delta}) = O(n^eps) per machine, §3.3);
//   4. derandomize the Lemma-13 candidate matching: a pairwise hash h gives
//      each E* edge a priority z_e; E_h = local minima (a matching);
//      objective q(h) = sum of d(v) over matched B-nodes, with
//      E[q] >= (1/109) sum_{v in B} d(v) >= delta |E| / 218;
//   5. commit a seed meeting the threshold, add E_h to the output, delete
//      matched nodes — removing >= delta |E| / 536 edges.
//
// Loop until no edges remain: O(log n) iterations, O(1) charged MPC rounds
// each (all communication flows through Lemma-4 primitives).
#pragma once

#include <cstdint>
#include <vector>

#include "derand/seed_search.hpp"
#include "graph/graph.hpp"
#include "graph/residual.hpp"
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/params.hpp"

namespace dmpc::matching {

/// Lemma 13: E[q] >= (1/109) sum_{v in B} d(v); the selection commits a
/// seed meeting q >= kThresholdFactor * sum_{v in B} d(v).
inline constexpr double kThresholdFactor = 1.0 / 109.0;

struct DetMatchingConfig {
  /// Space exponent: S = space_headroom * n^eps words per machine, and
  /// delta = eps/8 (inv_delta = 8/eps).
  double eps = 0.5;
  /// Constant-factor headroom on S (the paper's O(n^{8 delta}) constants).
  double space_headroom = 8.0;
  sparsify::SparsifyConfig sparsify;
  /// Candidates per selection batch; the best candidate meeting the
  /// threshold is committed (better practical progress at the same cost).
  std::uint64_t selection_batch = 16;
  std::uint64_t max_iterations = 100000;
  derand::SelectionMode selection_mode =
      derand::SelectionMode::kThresholdSearch;
  /// Threads, faults, observers and geometry overrides of the cluster the
  /// cluster-creating overload builds (zero geometry fields are provisioned
  /// from eps and space_headroom).
  mpc::ClusterConfig cluster;
};

struct IterationReport {
  std::uint64_t iteration = 0;
  std::uint32_t cls = 0;                ///< Class i chosen by Corollary 8.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint64_t matched_pairs = 0;      ///< |E_h| committed this iteration.
  double progress_fraction = 0.0;       ///< Removed / edges_before.
  std::uint64_t selection_trials = 0;
  std::uint64_t sparsify_stages = 0;
  std::uint32_t estar_max_degree = 0;
  /// Worst measured §3.2 invariant (i) ratio across this iteration's stages
  /// (max of StageReport::invariant_degree_ratio; 0 when no stages ran).
  double invariant_degree_ratio = 0.0;
  /// Worst measured invariant (ii) ratio (min of
  /// StageReport::invariant_xv_ratio; 2.0 sentinel when unmeasured).
  double invariant_xv_ratio = 2.0;
  /// Largest window escalation any stage needed (0 when no stages ran).
  double window_multiplier = 0.0;
};

struct DetMatchingResult {
  std::vector<graph::EdgeId> matching;
  std::uint64_t iterations = 0;
  std::vector<IterationReport> reports;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
  std::uint64_t machine_space = 0;  ///< S of the cluster the run used.
};

/// Step 3 (§3.3): space-checks and charges the gather of each B node's
/// 2-hop neighborhood in the residual edge list `estar` (2 words per edge;
/// messages name input-graph node ids) and returns estar's incidence.
graph::CsrLists gather_two_hop(
    mpc::Cluster& cluster, const graph::Residual& residual,
    const std::vector<graph::Residual::LocalId>& b_nodes,
    const std::vector<graph::Residual::LocalId>& estar);

/// Builds the cluster from config.cluster (provisioned for the graph) and
/// runs the full loop.
DetMatchingResult det_maximal_matching(const graph::Graph& g,
                                       const DetMatchingConfig& config);

/// As above, against a caller-provided cluster (metrics accumulate there;
/// config.cluster is ignored).
DetMatchingResult det_maximal_matching(mpc::Cluster& cluster,
                                       const graph::Graph& g,
                                       const DetMatchingConfig& config);

}  // namespace dmpc::matching
