// r-hop neighborhood gathering (§5.2.1).
//
// With Delta <= n^{delta} and r = O(delta log_Delta n), each node's r-hop
// ball has at most Delta^r = n^{O(delta)} nodes and fits on one machine.
// Graph-exponentiation doubling collects the balls in O(log r) MPC rounds —
// this is the source of Theorem 1's additive O(log log n) term, so the
// charge is log-accurate rather than folded into a constant.
//
// On the host the stages read the graph directly, so the gather computes
// only each ball's size (for the space check), by a truncated BFS over
// fixed node blocks on the cluster's executor.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::lowdeg {

struct NeighborhoodGather {
  /// ball_size[v] = alive nodes within distance <= r of an alive v
  /// (including v); 0 for a dead v.
  std::vector<std::uint32_t> ball_size;
  std::uint32_t radius = 0;
  std::uint64_t max_ball = 0;   ///< Largest ball size (space proxy).
  std::uint64_t rounds_charged = 0;
};

/// Size the r-hop balls restricted to alive nodes; space-checks the largest
/// ball against the cluster and charges ceil(log2(r)) + 1 doubling rounds.
NeighborhoodGather gather_neighborhoods(mpc::Cluster& cluster,
                                        const graph::Graph& g,
                                        const std::vector<bool>& alive,
                                        std::uint32_t radius);

}  // namespace dmpc::lowdeg
