#include "lowdeg/neighborhoods.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"
#include "support/math.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

NeighborhoodGather gather_neighborhoods(mpc::Cluster& cluster, const Graph& g,
                                        const std::vector<bool>& alive,
                                        std::uint32_t radius) {
  DMPC_CHECK(radius >= 1);
  NeighborhoodGather out;
  out.radius = radius;
  out.balls.resize(g.num_nodes());

  // Central truncated BFS per node; the model cost is the doubling scheme.
  std::vector<std::uint32_t> dist(g.num_nodes(), UINT32_MAX);
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    touched.clear();
    std::queue<NodeId> frontier;
    dist[v] = 0;
    frontier.push(v);
    touched.push_back(v);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      if (dist[u] == radius) continue;
      for (NodeId w : g.neighbors(u)) {
        if (!alive[w] || dist[w] != UINT32_MAX) continue;
        dist[w] = dist[u] + 1;
        frontier.push(w);
        touched.push_back(w);
      }
    }
    out.balls[v].assign(touched.begin(), touched.end());
    std::sort(out.balls[v].begin(), out.balls[v].end());
    out.max_ball = std::max<std::uint64_t>(out.max_ball, touched.size());
    for (NodeId w : touched) dist[w] = UINT32_MAX;
  }

  // Space: a ball of b nodes with degree <= Delta needs O(b * Delta) words
  // to hold the induced edges.
  const std::uint64_t words =
      out.max_ball * std::max<std::uint32_t>(g.max_degree(), 1);
  cluster.check_load(words, "gather_neighborhoods", "lowdeg/gather");
  out.rounds_charged = static_cast<std::uint64_t>(ceil_log2(
                           std::max<std::uint64_t>(radius, 2))) +
                       1;
  cluster.charge("lowdeg/gather", out.rounds_charged,
                 words * cluster.machines());
  return out;
}

}  // namespace dmpc::lowdeg
