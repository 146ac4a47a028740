// The §5 low-degree host code that the node-parallel version replaced, kept
// verbatim as a differential oracle: graph::square (G^2 built through a
// GraphBuilder), the Linial step over G^2 with a per-color table of every
// f_c(x), the std::queue ball BFS that stores each sorted ball, and the
// stage simulation that hashes every node's color per phase. It is serial
// and allocates O(n * q) words per reduction step, which is why it lives
// here and not in src/. test_lowdeg runs both versions and requires equal
// colors, ball sizes and stage outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hash/small_family.hpp"
#include "lowdeg/coloring.hpp"

namespace dmpc::oracle {

/// Square graph: same nodes, edges between every pair at distance 1 or 2.
graph::Graph square(const graph::Graph& g);

/// The previous lowdeg::linial_coloring_raw (proper coloring of g).
lowdeg::ColoringResult linial_coloring_raw(const graph::Graph& g);

/// The previous lowdeg::distance2_coloring_raw: Linial on square(g).
lowdeg::ColoringResult distance2_coloring_raw(const graph::Graph& g);

/// The previous gather: balls[v] = alive nodes within distance <= radius of
/// an alive v (including v), sorted; empty for a dead v.
std::vector<std::vector<graph::NodeId>> balls(const graph::Graph& g,
                                              const std::vector<bool>& alive,
                                              std::uint32_t radius);

/// The previous lowdeg::simulate_stage (one z per node per phase).
std::vector<graph::NodeId> simulate_stage(
    const graph::Graph& g, const std::vector<bool>& alive,
    const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence, std::uint64_t seq);

}  // namespace dmpc::oracle
