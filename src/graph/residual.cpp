#include "graph/residual.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace dmpc::graph {

namespace {
constexpr Residual::LocalId kNoLocal =
    std::numeric_limits<Residual::LocalId>::max();
}  // namespace

Residual::Residual(const Graph& g, const std::vector<bool>& alive) {
  DMPC_CHECK(alive.size() == g.num_nodes());
  std::vector<LocalId> local(g.num_nodes(), kNoLocal);
  std::uint64_t slots = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    std::uint32_t d = 0;
    for (NodeId u : g.neighbors(v)) d += alive[u] ? 1 : 0;
    if (d == 0) continue;
    local[v] = static_cast<LocalId>(nodes_.size());
    nodes_.push_back(v);
    degree_.push_back(d);
    slots += d;
  }
  DMPC_CHECK_MSG(slots / 2 < kNoLocal,
                 "residual: live edges exceed 32-bit local ids");
  edges_.reserve(slots / 2);
  ends_.reserve(slots / 2);
  EdgeId e = 0;
  for (const Edge& ed : g.edges()) {
    if (local[ed.u] != kNoLocal && local[ed.v] != kNoLocal) {
      edges_.push_back(e);
      ends_.push_back({local[ed.u], local[ed.v]});
    }
    ++e;
  }
}

void Residual::remove(const std::vector<std::uint8_t>& removed) {
  DMPC_CHECK(removed.size() == nodes_.size());
  const auto kept = [&](const LocalEdge& ed) {
    return removed[ed.u] == 0 && removed[ed.v] == 0;
  };
  std::fill(degree_.begin(), degree_.end(), 0);
  for (const LocalEdge& ed : ends_) {
    if (!kept(ed)) continue;
    ++degree_[ed.u];
    ++degree_[ed.v];
  }
  // Renumber in place: survivors keep their relative (ascending) order.
  std::vector<LocalId> local(nodes_.size(), kNoLocal);
  LocalId kept_nodes = 0;
  for (LocalId v = 0; v < nodes_.size(); ++v) {
    if (degree_[v] == 0) continue;
    local[v] = kept_nodes;
    nodes_[kept_nodes] = nodes_[v];
    degree_[kept_nodes++] = degree_[v];
  }
  nodes_.resize(kept_nodes);
  degree_.resize(kept_nodes);
  std::size_t kept_edges = 0;
  for (std::size_t k = 0; k < ends_.size(); ++k) {
    const LocalEdge ed = ends_[k];
    if (!kept(ed)) continue;
    edges_[kept_edges] = edges_[k];
    ends_[kept_edges++] = {local[ed.u], local[ed.v]};
  }
  edges_.resize(kept_edges);
  ends_.resize(kept_edges);
}

std::vector<std::uint32_t> Residual::degrees(
    std::span<const LocalId> subset) const {
  std::vector<std::uint32_t> degree(nodes_.size(), 0);
  for (LocalId e : subset) {
    ++degree[ends_[e].u];
    ++degree[ends_[e].v];
  }
  return degree;
}

CsrLists Residual::incidence(std::span<const LocalId> subset,
                             std::size_t spare) const {
  CsrLists out;
  // offsets[v + 1] counts v's edges, then its prefix sum is where row v
  // ends; filling each row from the back leaves offsets[v] at its start.
  out.offsets.assign(nodes_.size() + 1, 0);
  for (LocalId e : subset) {
    ++out.offsets[ends_[e].u + 1];
    ++out.offsets[ends_[e].v + 1];
  }
  for (LocalId v = 0; v < nodes_.size(); ++v) {
    out.offsets[v + 1] += out.offsets[v];
  }
  out.items.reserve(out.offsets.back() + spare);
  out.items.resize(out.offsets.back());
  // Descending subset order fills every row back to front, so each row
  // ends up ascending, and so in ascending neighbor order too: the edges
  // of v to lower nodes come first, sorted by their lower endpoint, then
  // those to higher nodes, sorted by their upper endpoint.
  std::copy(out.offsets.begin() + 1, out.offsets.end(), out.offsets.begin());
  for (std::uint32_t pos = static_cast<std::uint32_t>(subset.size());
       pos-- > 0;) {
    out.items[--out.offsets[ends_[subset[pos]].u]] = pos;
    out.items[--out.offsets[ends_[subset[pos]].v]] = pos;
  }
  return out;
}

}  // namespace dmpc::graph
