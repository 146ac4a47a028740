#include "lowdeg/coloring.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "field/primes.hpp"
#include "graph/validate.hpp"
#include "support/check.hpp"

namespace dmpc::lowdeg {

using graph::Graph;
using graph::NodeId;

namespace {

/// Nodes per block of the node-parallel loops. A constant, so the split —
/// and with it every result — is the same for every thread count.
constexpr std::uint64_t kBlock = 4096;

/// Evaluate the degree-k polynomial encoding of `color` at x: digit i of
/// `color` in base q is the coefficient of x^i. k <= 8 (see reduction_step),
/// so k + 1 digits always fit the buffer.
std::uint64_t poly_of_color(std::uint32_t color, unsigned k, std::uint64_t q,
                            std::uint64_t x) {
  std::uint64_t digits[9];
  std::uint64_t c = color;
  for (unsigned i = 0; i <= k; ++i) {
    digits[i] = c % q;
    c /= q;
  }
  std::uint64_t acc = 0;
  for (unsigned i = k + 1; i-- > 0;) acc = (acc * x + digits[i]) % q;
  return acc;
}

/// visit(u) for every walk v -> u of 1..radius hops (radius 1 or 2), so with
/// repeats and, for radius 2, v itself. Stops at, and returns false on, the
/// first visit that returns false.
template <typename Visit>
bool all_near(const Graph& g, unsigned radius, NodeId v, Visit&& visit) {
  for (NodeId w : g.neighbors(v)) {
    if (!visit(w)) return false;
    if (radius == 1) continue;
    for (NodeId u : g.neighbors(w)) {
      if (!visit(u)) return false;
    }
  }
  return true;
}

/// Max degree of G^radius: G's own for radius 1; for radius 2 the largest
/// deduplicated 2-hop set without its center.
std::uint32_t power_max_degree(const Graph& g, unsigned radius,
                               const exec::Executor& ex) {
  if (radius == 1) return g.max_degree();
  const auto degree = [&](std::uint64_t v) {
    thread_local std::vector<NodeId> near;
    near.clear();
    all_near(g, 2, static_cast<NodeId>(v), [&](NodeId u) {
      if (u != v) near.push_back(u);
      return true;
    });
    std::sort(near.begin(), near.end());
    return static_cast<std::uint32_t>(
        std::unique(near.begin(), near.end()) - near.begin());
  };
  return ex.map_reduce(
      0, g.num_nodes(), std::uint32_t{0}, degree,
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); }, kBlock);
}

/// One Linial reduction step on G^radius (max degree d): C colors -> q^2
/// colors. Returns the new color count, or 0 when the step would not shrink
/// the space (fixed point).
///
/// The polynomial degree k trades palette for encoding room: a degree-k
/// encoding needs q^{k+1} >= C and q > k*d, and yields q^2 new colors, so
/// we pick the k in [2, 8] minimizing q^2 (k = 1 forces q >= sqrt(C) and
/// can never shrink). The fixed point is q ~ 2d+1, i.e. O(d^2) colors up to
/// the prime gap — applied to G^2 this is the paper's O(Delta^4).
std::uint32_t reduction_step(const Graph& g, unsigned radius, std::uint64_t d,
                             std::vector<std::uint32_t>& color,
                             std::uint32_t num_colors,
                             const exec::Executor& ex) {
  unsigned k = 0;
  std::uint64_t q = 0;
  for (unsigned kc = 2; kc <= 8; ++kc) {
    std::uint64_t qc = field::next_prime_at_least(kc * d + 1);
    while (std::pow(static_cast<double>(qc), static_cast<double>(kc + 1)) <
           static_cast<double>(num_colors)) {
      qc = field::next_prime_at_least(qc + 1);
    }
    if (k == 0 || qc * qc < q * q) {
      k = kc;
      q = qc;
    }
  }
  if (q * q >= num_colors) return 0;  // would not shrink — fixed point

  // Each node takes the smallest x at which f_v differs from f_u for every
  // near u of another color (u of the same color is v itself: the input is
  // proper on G^radius). At most k*d < q values of x are forbidden, so a
  // free x always exists. Sweeping x once for all nodes keeps one column
  // col[v] = f_{color[v]}(x) instead of a row of q values per color.
  const NodeId n = g.num_nodes();
  constexpr std::uint32_t kPending = 0xFFFFFFFFu;  // >= q^2 > any new color
  std::vector<std::uint32_t> next(n, kPending);
  std::vector<std::uint32_t> col(n);
  std::uint64_t pending = n;
  for (std::uint64_t x = 0; x < q && pending > 0; ++x) {
    ex.for_each(
        0, n,
        [&](std::uint64_t v) {
          col[v] = static_cast<std::uint32_t>(poly_of_color(color[v], k, q, x));
        },
        kBlock);
    // Places v if it is free at x; returns whether v is still pending.
    const auto place = [&](std::uint64_t v) -> std::uint64_t {
      if (next[v] != kPending) return 0;
      if (!all_near(g, radius, static_cast<NodeId>(v), [&](NodeId u) {
            return color[u] == color[v] || col[u] != col[v];
          })) {
        return 1;
      }
      next[v] = static_cast<std::uint32_t>(x * q + col[v]);
      return 0;
    };
    pending = ex.map_reduce(0, n, std::uint64_t{0}, place,
                            std::plus<std::uint64_t>(), kBlock);
  }
  DMPC_CHECK_MSG(pending == 0, "Linial step found no free evaluation point");
  color = std::move(next);
  return static_cast<std::uint32_t>(q * q);
}

/// Linial's reduction on G^radius from the identity coloring to its fixed
/// point; O(log* n) steps since C -> O((D log_D C)^2).
ColoringResult linial(const Graph& g, unsigned radius,
                      const exec::Executor& ex) {
  ColoringResult result;
  result.color.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) result.color[v] = v;
  result.num_colors = std::max<std::uint32_t>(g.num_nodes(), 1);
  const std::uint64_t d =
      std::max<std::uint32_t>(power_max_degree(g, radius, ex), 1);
  while (const std::uint32_t next = reduction_step(
             g, radius, d, result.color, result.num_colors, ex)) {
    ++result.reduction_steps;
    result.num_colors = next;
  }
  return result;
}

// Each reduction step is O(1) MPC rounds: nodes need only neighbor colors.
void charge_linial(mpc::Cluster& cluster, const Graph& g,
                   const ColoringResult& result) {
  cluster.charge("coloring/linial",
                 std::max<std::uint32_t>(result.reduction_steps, 1),
                 static_cast<std::uint64_t>(result.reduction_steps + 1) * 2 *
                     g.num_edges());
}

}  // namespace

ColoringResult linial_coloring_raw(const Graph& g, const exec::Executor& ex) {
  ColoringResult result = linial(g, 1, ex);
  DMPC_CHECK(graph::is_proper_coloring(g, result.color));
  return result;
}

ColoringResult distance2_coloring_raw(const Graph& g,
                                      const exec::Executor& ex) {
  ColoringResult result = linial(g, 2, ex);
  DMPC_CHECK(graph::is_distance2_coloring(g, result.color));
  return result;
}

ColoringResult linial_coloring(mpc::Cluster& cluster, const Graph& g) {
  ColoringResult result = linial_coloring_raw(g, cluster.executor());
  charge_linial(cluster, g, result);
  return result;
}

ColoringResult distance2_coloring(mpc::Cluster& cluster, const Graph& g) {
  // A node walks its 2-hop neighborhood on its own machine: Delta^2 words,
  // within S for the Delta <= n^{delta} regime (§5).
  cluster.check_load(static_cast<std::uint64_t>(g.max_degree()) *
                         std::max<std::uint32_t>(g.max_degree(), 1),
                     "coloring/2hop", "coloring/2hop");
  cluster.charge("coloring/2hop", 2, 0);
  ColoringResult result = distance2_coloring_raw(g, cluster.executor());
  charge_linial(cluster, g, result);
  return result;
}

}  // namespace dmpc::lowdeg
