// The live part of a graph, compacted (the residual graph).
//
// An iterative algorithm on a shrinking graph (the §3 matching loop removes
// a constant fraction of the live edges per iteration) keeps the input
// `Graph` fixed and marks what is still alive. Scanning the input every
// iteration then costs O(m) per iteration however little is left. A
// `Residual` holds only the live part: the nodes that still have a live
// edge and the edges with both endpoints alive, renumbered 0..k-1 ("local"
// ids), with each edge's local endpoints and each node's degree. Host work
// over it is proportional to the live graph, and so is its memory: 16 bytes
// per live edge and 8 per live node. Adjacency is built on demand, for the
// edge subset at hand (`incidence`): holding full rows as well would cost 8
// more bytes per live edge for the whole solve.
//
// Id contract. Local node and edge ids are positions in ascending lists of
// the original ids (`node_id(i)`, `edge_id(k)`), so every order over local
// ids is the same order over original ids: a sweep over local nodes visits
// the live nodes in ascending NodeId order, an ascending local edge list is
// an ascending EdgeId list, and incidence rows are ascending in both
// numberings. Anything the model or the paper keys by id (hash points,
// tie-breaks, solution edges, messages) must use the original ids; local
// ids only index host arrays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dmpc::graph {

/// Lists in CSR form: list i is items[offsets[i], offsets[i + 1]).
struct CsrLists {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> items;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const std::uint32_t> operator[](std::size_t i) const {
    return {items.data() + offsets[i], items.data() + offsets[i + 1]};
  }

  /// Keeps the items x with keep(x), in order, in every list.
  template <typename Keep>
  void keep_if(Keep keep) {
    std::uint64_t kept = 0;
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      const std::uint64_t end = offsets[i + 1];
      for (std::uint64_t k = begin; k < end; ++k) {
        if (keep(items[k])) items[kept++] = items[k];
      }
      begin = end;
      offsets[i + 1] = kept;
    }
    items.resize(kept);
  }
};

class Residual {
 public:
  /// Local node or edge id.
  using LocalId = std::uint32_t;

  /// Local endpoints of a live edge (u < v, as in the input's canonical
  /// order).
  struct LocalEdge {
    LocalId u = 0;
    LocalId v = 0;
    friend bool operator==(const LocalEdge&, const LocalEdge&) = default;
  };

  Residual() = default;

  /// The live part of g: edges with both endpoints alive, and the alive
  /// nodes with at least one of them. O(n + m).
  Residual(const Graph& g, const std::vector<bool>& alive);

  /// Removes the local nodes with removed[v] != 0, their edges, and the
  /// nodes left without an edge, then renumbers. O(num_nodes() +
  /// num_edges()); equal to a fresh Residual(g, alive) with those nodes dead.
  void remove(const std::vector<std::uint8_t>& removed);

  LocalId num_nodes() const { return static_cast<LocalId>(nodes_.size()); }
  EdgeId num_edges() const { return edges_.size(); }

  /// Original id of a local node / edge.
  NodeId node_id(LocalId v) const { return nodes_[v]; }
  EdgeId edge_id(LocalId e) const { return edges_[e]; }

  const LocalEdge& edge(LocalId e) const { return ends_[e]; }
  LocalId other_endpoint(LocalId e, LocalId v) const {
    return ends_[e].u == v ? ends_[e].v : ends_[e].u;
  }

  std::uint32_t degree(LocalId v) const { return degree_[v]; }
  const std::vector<std::uint32_t>& degrees() const { return degree_; }

  /// Degree of every node within the local edge list `subset`.
  std::vector<std::uint32_t> degrees(std::span<const LocalId> subset) const;

  /// Incidence of the ascending local edge list `subset`: list v holds the
  /// positions (into `subset`) of v's edges in it, ascending.
  /// O(num_nodes() + |subset|). `items` reserves `spare` more slots for a
  /// caller that appends to it.
  CsrLists incidence(std::span<const LocalId> subset,
                     std::size_t spare = 0) const;

  friend bool operator==(const Residual&, const Residual&) = default;

 private:
  std::vector<NodeId> nodes_;  ///< Original ids, ascending.
  std::vector<EdgeId> edges_;  ///< Original ids, ascending.
  std::vector<LocalEdge> ends_;
  std::vector<std::uint32_t> degree_;
};

}  // namespace dmpc::graph
