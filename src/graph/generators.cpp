#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmpc::graph {

Graph gnm(NodeId n, EdgeId m, std::uint64_t seed) {
  DMPC_CHECK(n >= 2);
  const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
  DMPC_CHECK_MSG(m <= max_edges, "too many edges requested");
  Rng rng(seed);
  // For sparse requests, rejection-sample; for dense (> half of all pairs),
  // sample the complement instead so the loop stays linear-ish. `chosen`
  // holds sorted, distinct u << 32 | v keys (u < v). Each batch draws
  // exactly as many non-loop pairs as are still missing, so no batch can
  // pass the point where one-pair-at-a-time sampling would stop: the result
  // and the random stream consumed are those of the sequential loop.
  const bool dense = m > max_edges / 2;
  const EdgeId target = dense ? max_edges - m : m;
  std::vector<std::uint64_t> chosen;
  std::vector<std::uint64_t> batch;
  while (chosen.size() < target) {
    batch.clear();
    while (batch.size() < target - chosen.size()) {
      auto u = static_cast<NodeId>(rng.next_below(n));
      auto v = static_cast<NodeId>(rng.next_below(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      batch.push_back(static_cast<std::uint64_t>(u) << 32 | v);
    }
    std::sort(batch.begin(), batch.end());
    const auto mid = static_cast<std::ptrdiff_t>(chosen.size());
    chosen.insert(chosen.end(), batch.begin(), batch.end());
    std::inplace_merge(chosen.begin(), chosen.begin() + mid, chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  }
  GraphBuilder b(n);
  if (!dense) {
    for (std::uint64_t key : chosen) {
      b.add_edge(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key));
    }
  } else {
    auto skip = chosen.begin();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (skip != chosen.end() &&
            *skip == (static_cast<std::uint64_t>(u) << 32 | v)) {
          ++skip;
        } else {
          b.add_edge(u, v);
        }
      }
    }
  }
  return std::move(b).build();
}

Graph gnp(NodeId n, double p, std::uint64_t seed) {
  DMPC_CHECK(n >= 1);
  DMPC_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  if (p <= 0.0) return std::move(b).build();
  Rng rng(seed);
  if (p >= 1.0) return complete(n);
  // Geometric skipping over the lexicographic pair order.
  const double log_q = std::log1p(-p);
  std::uint64_t idx = 0;  // index into the n*(n-1)/2 pair sequence
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  while (true) {
    const double r = rng.next_double();
    const auto skip =
        static_cast<std::uint64_t>(std::floor(std::log1p(-r) / log_q));
    idx += skip;
    if (idx >= total) break;
    // Decode pair index -> (u, v) with u < v.
    // Row u holds (n-1-u) pairs; find u by walking (amortized fine since we
    // only decode selected edges).
    std::uint64_t rem = idx;
    NodeId u = 0;
    while (rem >= static_cast<std::uint64_t>(n - 1 - u)) {
      rem -= n - 1 - u;
      ++u;
    }
    const NodeId v = static_cast<NodeId>(u + 1 + rem);
    b.add_edge(u, v);
    ++idx;
  }
  return std::move(b).build();
}

Graph power_law(NodeId n, EdgeId m_target, double beta, std::uint64_t seed) {
  DMPC_CHECK(n >= 2);
  DMPC_CHECK_MSG(beta > 2.0, "Chung-Lu requires beta > 2");
  // Weights w_v = c * (v+1)^{-1/(beta-1)}; edge {u,v} kept with probability
  // min(1, w_u w_v / W). Scale c to hit ~m_target expected edges.
  std::vector<double> w(n);
  const double exponent = -1.0 / (beta - 1.0);
  double total = 0;
  for (NodeId v = 0; v < n; ++v) {
    w[v] = std::pow(static_cast<double>(v + 1), exponent);
    total += w[v];
  }
  // E[m] = sum_{u<v} w_u w_v / W ~ W / 2 with W = sum w. Scaling every
  // weight by c scales both numerator (c^2) and denominator (c), so E[m]
  // scales by c: pick c = m_target / (W/2).
  const double base_m = total / 2.0;
  const double c = static_cast<double>(m_target) / base_m;
  for (auto& x : w) x *= c;
  total *= c;

  Rng rng(seed);
  GraphBuilder b(n);
  // Efficient Chung-Lu: for each u, sample neighbors v > u with probability
  // w_u w_v / W via geometric skipping against the max weight in the tail,
  // then accept/reject. Tail weights are decreasing, so max = w[u+1].
  for (NodeId u = 0; u + 1 < n; ++u) {
    const double p_max = std::min(1.0, w[u] * w[u + 1] / total);
    if (p_max <= 0) continue;
    double v_real = u;
    const double log_q = std::log1p(-p_max);
    while (true) {
      if (p_max < 1.0) {
        const double r = rng.next_double();
        v_real += 1.0 + std::floor(std::log1p(-r) / log_q);
      } else {
        v_real += 1.0;
      }
      if (v_real >= n) break;
      const auto v = static_cast<NodeId>(v_real);
      const double p_actual = std::min(1.0, w[u] * w[v] / total);
      if (rng.next_double() < p_actual / p_max) b.add_edge(u, v);
    }
  }
  return std::move(b).build();
}

Graph random_regular(NodeId n, std::uint32_t d, std::uint64_t seed) {
  DMPC_CHECK(n >= 2);
  DMPC_CHECK(d >= 1 && d < n);
  Rng rng(seed);
  GraphBuilder b(n);
  // Pairing model: d copies of each node, random perfect matching of the
  // copies; self-pairs and duplicate pairs are dropped.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  if (stubs.size() % 2 == 1) stubs.pop_back();
  for (std::size_t i = stubs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(stubs[i - 1], stubs[j]);
  }
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    b.try_add_edge(stubs[i], stubs[i + 1]);
  }
  return std::move(b).build();
}

Graph complete(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return std::move(b).build();
}

Graph complete_bipartite(NodeId left, NodeId right) {
  GraphBuilder b(left + right);
  for (NodeId u = 0; u < left; ++u) {
    for (NodeId v = 0; v < right; ++v) b.add_edge(u, left + v);
  }
  return std::move(b).build();
}

Graph random_bipartite(NodeId left, NodeId right, EdgeId m,
                       std::uint64_t seed) {
  DMPC_CHECK(left >= 1 && right >= 1);
  const EdgeId max_edges = static_cast<EdgeId>(left) * right;
  DMPC_CHECK(m <= max_edges);
  Rng rng(seed);
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < m) {
    auto u = static_cast<NodeId>(rng.next_below(left));
    auto v = static_cast<NodeId>(left + rng.next_below(right));
    chosen.insert({u, v});
  }
  GraphBuilder b(left + right);
  for (auto [u, v] : chosen) b.add_edge(u, v);
  return std::move(b).build();
}

Graph cycle(NodeId n) {
  DMPC_CHECK(n >= 3);
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return std::move(b).build();
}

Graph path(NodeId n) {
  DMPC_CHECK(n >= 2);
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

Graph grid(NodeId rows, NodeId cols) {
  DMPC_CHECK(rows >= 1 && cols >= 1);
  DMPC_CHECK(static_cast<std::uint64_t>(rows) * cols < kNoNode);
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(b).build();
}

Graph random_tree(NodeId n, std::uint64_t seed) {
  DMPC_CHECK(n >= 1);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(static_cast<NodeId>(rng.next_below(v)), v);
  }
  return std::move(b).build();
}

Graph star(NodeId leaves) {
  DMPC_CHECK(leaves >= 1);
  GraphBuilder b(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) b.add_edge(0, v);
  return std::move(b).build();
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  GraphBuilder out(a.num_nodes() + b.num_nodes());
  for (const Edge& e : a.edges()) out.add_edge(e.u, e.v);
  for (const Edge& e : b.edges()) {
    out.add_edge(a.num_nodes() + e.u, a.num_nodes() + e.v);
  }
  return std::move(out).build();
}

Graph lopsided(NodeId core, std::uint32_t core_degree, NodeId background,
               EdgeId background_edges, std::uint64_t seed) {
  DMPC_CHECK(core >= 1);
  const NodeId leaf_count = core * core_degree;
  const NodeId n = core + leaf_count + background;
  GraphBuilder b(n);
  // Core node i owns leaves [core + i*core_degree, core + (i+1)*core_degree).
  for (NodeId i = 0; i < core; ++i) {
    for (std::uint32_t j = 0; j < core_degree; ++j) {
      b.add_edge(i, core + i * core_degree + j);
    }
  }
  if (background >= 2 && background_edges > 0) {
    Rng rng(seed);
    const NodeId bg_base = core + leaf_count;
    std::set<std::pair<NodeId, NodeId>> chosen;
    const EdgeId max_bg = static_cast<EdgeId>(background) * (background - 1) / 2;
    const EdgeId want = std::min(background_edges, max_bg);
    while (chosen.size() < want) {
      auto u = static_cast<NodeId>(bg_base + rng.next_below(background));
      auto v = static_cast<NodeId>(bg_base + rng.next_below(background));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      chosen.insert({u, v});
    }
    for (auto [u, v] : chosen) b.add_edge(u, v);
  }
  return std::move(b).build();
}

}  // namespace dmpc::graph
