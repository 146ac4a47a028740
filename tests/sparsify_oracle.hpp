// The §3.1/§3.2 matching-side host code that the residual port replaced,
// kept as a differential oracle: good-node selection and the edge
// sparsifier over the input graph with std::vector<bool> masks (alive
// nodes, E_0, E_{j-1}) and one X(v) vector per node. Every stage scans all
// g.num_edges() edges and g.num_nodes() nodes, which is why it lives here
// and not in src/. test_sparsify runs both versions and requires equal good
// sets, edge sets, X(v) lists and stage reports.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/params.hpp"

namespace dmpc::oracle {

/// The previous sparsify::MatchingGoodSet: masks and lists over the input
/// graph's ids.
struct MaskGoodSet {
  std::uint32_t cls = 0;
  std::vector<bool> in_B;   ///< Over g.num_nodes().
  std::vector<bool> in_E0;  ///< Over g.num_edges().
  /// X(v) for v in B (empty vectors elsewhere).
  std::vector<std::vector<graph::EdgeId>> xv;
  std::uint64_t b_degree_mass = 0;
  graph::EdgeId alive_edges = 0;
};

/// The previous sparsify::EdgeSparsifyResult.
struct MaskSparsifyResult {
  std::vector<bool> in_Estar;  ///< Over g.num_edges().
  std::vector<sparsify::StageReport> stages;
  std::uint32_t max_degree = 0;
  std::vector<std::vector<graph::EdgeId>> xv_star;
};

/// The previous sparsify::select_matching_good_set.
MaskGoodSet select_matching_good_set(mpc::Cluster& cluster,
                                     const sparsify::Params& params,
                                     const graph::Graph& g,
                                     const std::vector<bool>& alive);

/// The previous sparsify::sparsify_edges.
MaskSparsifyResult sparsify_edges(mpc::Cluster& cluster,
                                  const sparsify::Params& params,
                                  const graph::Graph& g,
                                  const MaskGoodSet& good,
                                  const sparsify::SparsifyConfig& config);

}  // namespace dmpc::oracle
