// Phase compression (§5.2.2): derandomize l = Theta(delta log_Delta n) Luby
// phases in one O(1)-round stage.
//
// Given a distance-2 coloring chi with C = O(Delta^4) colors, a Luby phase
// only needs pairwise independence between 2-hop-distinct nodes, so phase i
// draws priorities z_v = h_i(chi(v)) from the small family H* : [C] -> [C]
// (O(log Delta)-bit seed). A whole stage is a *sequence* (h_1, ..., h_l);
// each node can simulate the full stage from its (2l)-hop ball, so all
// candidate sequences are evaluated in parallel and one Lemma-4 aggregation
// picks the sequence minimizing the residual edge count. The committed
// sequence is applied; every phase removes at least the global (z, id)
// minimum of the residual graph, so a stage always makes progress.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hash/small_family.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::lowdeg {

struct StageOutcome {
  std::vector<graph::NodeId> independent;  ///< Union of the l phase sets.
  std::uint64_t sequence_seed = 0;
  std::uint64_t sequences_tried = 0;
  graph::EdgeId edges_before = 0;
  graph::EdgeId edges_after = 0;
};

/// Simulate one stage of `phases` Luby phases under sequence seed `seq`,
/// returning the joined independent set (does not modify `alive`). Every
/// color must be below sequence.family().color_count(): a phase hashes each
/// color once, into a table over that palette.
std::vector<graph::NodeId> simulate_stage(
    const graph::Graph& g, const std::vector<bool>& alive,
    const std::vector<std::uint32_t>& color,
    const hash::FunctionSequence& sequence, std::uint64_t seq);

/// Derandomize one stage: evaluate up to `budget` candidate sequences in
/// O(1) charged rounds, commit the best, update `alive`, return the outcome.
StageOutcome run_stage(mpc::Cluster& cluster, const graph::Graph& g,
                       std::vector<bool>& alive,
                       const std::vector<std::uint32_t>& color,
                       const hash::FunctionSequence& sequence,
                       std::uint64_t budget);

}  // namespace dmpc::lowdeg
