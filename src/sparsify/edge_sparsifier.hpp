// Deterministic edge sparsification (§3.2): from E_0 to E* in O(1) stages.
//
// Stage j sub-samples E_{j-1} at rate n^{-delta} using a c-wise independent
// hash on edge ids, derandomized so that every "machine" (a chunk of one
// node's incident edge list, group size n^{4 delta}) is *good*: its kept
// count lands within a concentration window around the expectation
// (paper: e_x n^{-delta} ± n^{0.1 delta} sqrt(e_x)). Type-A machines
// (all incident edges) make the degree upper bound (Invariant (i),
// Lemma 10); type-B machines (the X(v) lists of good nodes) make the
// lower bound (Invariant (ii), Lemma 11). After max(0, i-4) stages every
// degree in E* is O(n^{4 delta}) and 2-hop neighborhoods fit on a machine.
//
// Finite-n adaptation (documented in DESIGN.md §2.3): the paper's window is
// sized for asymptotic union bounds. We start from the paper's formula
// scaled by `slack_factor` and, if no seed in the search budget makes all
// machines good (possible only at small n where the window is narrower than
// the binomial spread), deterministically double the window and retry. The
// committed seed always makes every machine good *for the window actually
// used*, which is what the Lemma 10/11 algebra consumes; the per-stage
// report records the window so experiments (E4) can compare measured
// degrees against the paper-form bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/params.hpp"
#include "sparsify/stage_objective.hpp"

namespace dmpc::sparsify {

struct SparsifyConfig {
  double slack_factor = 3.0;          ///< Multiplier on the paper's window.
  std::uint32_t max_escalations = 16; ///< Window doublings before giving up.
  std::uint64_t trials_per_window = 64;  ///< Seeds tried per window size.
  unsigned hash_k = 4;                ///< Independence degree c.
  std::uint32_t extra_stage_cap = 16; ///< Extra stages if degrees above cap.
};

struct StageReport {
  std::uint32_t stage = 0;           ///< 1-based stage index j.
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;          ///< Seeds evaluated in this stage.
  double window_multiplier = 1.0;    ///< Final slack multiplier used.
  std::uint64_t machines = 0;        ///< Chunks checked for goodness.
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
  std::uint32_t max_degree_after = 0;
  /// Measured invariant (i) head-room: max_v d_{E_j}(v) /
  /// (n^{-j delta} d_{E_0}(v) + n^{3 delta}).
  double invariant_degree_ratio = 0.0;
  /// Measured invariant (ii): min_{v in B, X(v) nonempty}
  /// |X(v) ∩ E_j| / (n^{-j delta} |X(v)|).
  double invariant_xv_ratio = 0.0;
};

struct EdgeSparsifyResult {
  std::vector<LocalId> estar;  ///< E*: residual edge ids, ascending.
  std::vector<StageReport> stages;
  std::uint32_t max_degree = 0;  ///< Max degree within E*.
  /// X(v) ∩ E* for each B node (aligned with the good set's b_nodes).
  graph::CsrLists xv_star;
};

/// One stage's goodness windows over the ascending residual edge list
/// `edges` = E_{j-1} (hashed at the original ids), as StageObjective reads
/// them: a type-A upper COUNT window per node over its incident E_{j-1}
/// edges (Lemma 10; `degree_counts[v]` receives its size), a type-B lower
/// COUNT window per B node b_nodes[i] over X(v) = xv[i], which must lie in
/// E_{j-1} (Lemma 11), and one global two-sided COUNT window over E_{j-1}.
/// Empty windows are dropped. Exposed for tests.
StageWindows edge_stage_windows(const graph::Residual& residual,
                                std::span<const LocalId> edges,
                                std::span<const LocalId> b_nodes,
                                const graph::CsrLists& xv, double q,
                                double mult,
                                std::vector<std::uint64_t>& degree_counts);

/// Run §3.2 on the good set of `residual`, the live part of g (which sizes
/// the hash domain). `good.e0`/`good.xv` define E_0; E* is a subset of it.
EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const graph::Graph& g,
                                  const graph::Residual& residual,
                                  const MatchingGoodSet& good,
                                  const SparsifyConfig& config);

}  // namespace dmpc::sparsify
