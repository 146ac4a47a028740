#include "lowdeg/neighborhoods.hpp"

#include <algorithm>

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
  const NodeId n = g.num_nodes();
  out.ball_size.assign(n, 0);

  // Truncated BFS per node, level by level; the model cost is the doubling
  // scheme. Each worker keeps one n-byte visited mask, all-zero between
  // nodes, and v writes only its own slot, so sizes match for every thread
  // count.
  constexpr std::uint64_t kBlock = 8192;
  const auto bfs = [&](std::uint64_t v) {
    if (!alive[v]) return;
    thread_local std::vector<std::uint8_t> seen;
    thread_local std::vector<NodeId> ball;  // visited nodes, in level order
    if (seen.size() < n) seen.resize(n, 0);
    ball.assign(1, static_cast<NodeId>(v));
    seen[v] = 1;
    std::size_t level_begin = 0;
    for (std::uint32_t r = 0; r < radius && level_begin < ball.size(); ++r) {
      const std::size_t level_end = ball.size();
      for (std::size_t i = level_begin; i < level_end; ++i) {
        for (NodeId w : g.neighbors(ball[i])) {
          if (!alive[w] || seen[w]) continue;
          seen[w] = 1;
          ball.push_back(w);
        }
      }
      level_begin = level_end;
    }
    out.ball_size[v] = static_cast<std::uint32_t>(ball.size());
    for (NodeId w : ball) seen[w] = 0;
  };
  cluster.executor().for_each(0, n, bfs, kBlock);
  for (const std::uint32_t size : out.ball_size) {
    out.max_ball = std::max<std::uint64_t>(out.max_ball, size);
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
