// Good-node selection (§3.1 for matching, §4.1 for MIS).
//
// Matching: X = {v : at least d(v)/3 neighbors u have d(u) <= d(v)}
// (Lemma 3 gives sum_{v in X} d(v) >= |E|/2). B = C_i ∩ X for the class i
// maximizing the degree mass (Corollary 8: >= (delta/2)|E|). E_0 is the
// union of the X(v) = {{u,v} : d(u) <= d(v)} over v in B.
//
// MIS: A = {v : sum_{u~v} 1/d(u) >= 1/3} (Corollary 15); B_i = {v :
// sum_{u in C_i ~ v} 1/d(u) >= delta/3}; i maximizes sum_{v in B_i} d(v)
// (Corollary 16: >= (delta/2)|E|); Q_0 = C_i.
//
// All selections run on the *alive* subgraph of the current iteration; the
// MPC cost is a constant number of Lemma-4 sorts/scans (§3.1), charged here.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/residual.hpp"
#include "mpc/cluster.hpp"
#include "sparsify/params.hpp"

namespace dmpc::sparsify {

using LocalId = graph::Residual::LocalId;

/// Result of the matching-side selection, in residual ids.
struct MatchingGoodSet {
  std::uint32_t cls = 0;          ///< Chosen class i.
  std::vector<LocalId> b_nodes;   ///< B = C_i ∩ X, ascending.
  std::vector<LocalId> e0;        ///< E_0 = union of the X(v), ascending.
  graph::CsrLists xv;  ///< X(v) per B node (aligned with b_nodes), ascending.
  std::uint64_t b_degree_mass = 0;  ///< sum_{v in B} d(v).
  graph::EdgeId alive_edges = 0;    ///< |E| of the alive subgraph.
};

MatchingGoodSet select_matching_good_set(mpc::Cluster& cluster,
                                         const Params& params,
                                         const graph::Residual& residual);

/// Result of the MIS-side selection.
struct MisGoodSet {
  std::uint32_t cls = 0;        ///< Chosen class i.
  std::vector<bool> in_B;       ///< v in B_i.
  std::vector<bool> in_Q0;      ///< v in Q_0 = C_i.
  std::uint64_t b_degree_mass = 0;
  graph::EdgeId alive_edges = 0;
};

MisGoodSet select_mis_good_set(mpc::Cluster& cluster, const Params& params,
                               const graph::Graph& g,
                               const std::vector<bool>& alive);

}  // namespace dmpc::sparsify
