#include "lowdeg/phase_compression.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

std::vector<NodeId> simulate_stage(const Graph& g,
                                   const std::vector<bool>& alive,
                                   const std::vector<std::uint32_t>& color,
                                   const hash::FunctionSequence& sequence,
                                   std::uint64_t seq) {
  std::vector<bool> live = alive;
  std::vector<NodeId> joined;
  // z_v = h(color[v]) depends on the color only: one value per color.
  std::vector<std::uint64_t> zc(sequence.family().color_count());
  for (unsigned phase = 0; phase < sequence.length(); ++phase) {
    const auto fn = sequence.phase_fn(seq, phase);
    for (std::uint64_t c = 0; c < zc.size(); ++c) zc[c] = fn.raw(c);
    // Local minima join; ties broken by id (colors are 2-hop distinct, so
    // adjacent nodes have distinct colors but hashes may still collide).
    std::vector<NodeId> winners;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!live[v]) continue;
      bool is_min = true;
      bool has_live_neighbor = false;
      const std::uint64_t zv = zc[color[v]];
      for (NodeId u : g.neighbors(v)) {
        if (!live[u]) continue;
        has_live_neighbor = true;
        const std::uint64_t zu = zc[color[u]];
        if (zu < zv || (zu == zv && u < v)) {
          is_min = false;
          break;
        }
      }
      if (is_min && has_live_neighbor) winners.push_back(v);
    }
    if (winners.empty()) break;  // residual graph has no edges
    for (NodeId v : winners) {
      joined.push_back(v);
      live[v] = false;
      for (NodeId u : g.neighbors(v)) live[u] = false;
    }
  }
  return joined;
}

StageOutcome run_stage(mpc::Cluster& cluster, const Graph& g,
                       std::vector<bool>& alive,
                       const std::vector<std::uint32_t>& color,
                       const hash::FunctionSequence& sequence,
                       std::uint64_t budget) {
  StageOutcome outcome;
  outcome.edges_before = graph::alive_edge_count(g, alive, cluster.executor());
  DMPC_CHECK(outcome.edges_before > 0);

  const std::uint64_t limit =
      std::min<std::uint64_t>(budget, sequence.sequence_count());
  // All candidate sequences are simulated locally from the gathered balls;
  // one aggregation (fan-in-S tree, width = limit) picks the minimizer and
  // one broadcast announces it — O(1) charged rounds per stage.
  const std::uint64_t depth =
      cluster.tree_depth(std::max<std::uint64_t>(g.num_nodes(), 2));
  cluster.check_load(limit, "lowdeg/stage: sequence table", "lowdeg/stage");
  cluster.charge("lowdeg/stage", 2 * depth + 1, limit * cluster.machines());

  // Candidate simulations are independent and pure — run them host-parallel,
  // then pick the minimizer with a serial strict-< scan (ties commit the
  // lowest t, exactly like the serial loop, for every thread count).
  struct Candidate {
    std::uint64_t seq = 0;
    EdgeId after = 0;
    std::vector<NodeId> joined;
  };
  std::vector<Candidate> candidates(limit);
  cluster.executor().for_each(0, limit, [&](std::uint64_t t) {
    Candidate& cand = candidates[t];
    cand.seq = sequence.diverse(t);
    cand.joined = simulate_stage(g, alive, color, sequence, cand.seq);
    // Residual edges under this sequence.
    std::vector<bool> live = alive;
    for (NodeId v : cand.joined) {
      live[v] = false;
      for (NodeId u : g.neighbors(v)) live[u] = false;
    }
    cand.after = graph::alive_edge_count(g, live);
  });
  EdgeId best_after = 0;
  std::vector<NodeId> best_set;
  bool have = false;
  for (std::uint64_t t = 0; t < limit; ++t) {
    if (!have || candidates[t].after < best_after) {
      have = true;
      best_after = candidates[t].after;
      best_set = std::move(candidates[t].joined);
      outcome.sequence_seed = candidates[t].seq;
    }
  }
  outcome.sequences_tried = limit;
  DMPC_CHECK_MSG(have && !best_set.empty(),
                 "phase compression stage made no progress");

  for (NodeId v : best_set) {
    DMPC_CHECK(alive[v]);
    alive[v] = false;
    for (NodeId u : g.neighbors(v)) alive[u] = false;
  }
  // One more round: winners notify their r-hop balls (§5.2.2, "maintaining
  // the r-th hop neighborhood").
  cluster.charge("lowdeg/ball_update", 1, 0);
  outcome.independent = std::move(best_set);
  outcome.edges_after = graph::alive_edge_count(g, alive, cluster.executor());
  DMPC_CHECK(outcome.edges_after < outcome.edges_before);
  return outcome;
}

}  // namespace dmpc::lowdeg
