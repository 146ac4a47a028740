#include "matching/det_matching.hpp"

#include <algorithm>

#include "graph/validate.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "sparsify/good_nodes.hpp"
#include "support/check.hpp"

namespace dmpc::matching {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

/// The Lemma-13 selection objective. For hash seed s, every E* edge gets
/// priority z_e = h_s(e); E_h = edges that are local minima among their E*
/// neighbors (ties by id) — always a matching. Value = sum of alive-degrees
/// of B-nodes covered by E_h.
//
// Range form: the E* edge list is the bound point universe, so every
// priority z_e is computed once per seed by the lane-parallel kernel; the
// local-min test then reads competitors' priorities by edge position instead
// of re-evaluating the polynomial per incidence (previously O(sum deg^2)
// hash evaluations per seed — the selection hotspot). The covered bitmap is
// a per-seed prepass into thread-local scratch.
class SelectionObjective final : public derand::RangeObjective {
 public:
  SelectionObjective(const Graph& g, const hash::KWiseFamily& family,
                     const std::vector<EdgeId>& estar_edges,
                     const std::vector<std::vector<EdgeId>>& estar_incident,
                     const std::vector<bool>& in_B,
                     const std::vector<std::uint32_t>& alive_degree)
      : g_(&g),
        estar_edges_(&estar_edges),
        estar_incident_(&estar_incident),
        in_B_(&in_B),
        alive_degree_(&alive_degree),
        edge_pos_(g.num_edges(), 0) {
    for (std::size_t i = 0; i < estar_edges.size(); ++i) {
      edge_pos_[estar_edges[i]] = i;
    }
    bind_points(family, estar_edges.data(), estar_edges.size());
  }

  /// The committed matching for a seed (used after the search picks one).
  std::vector<EdgeId> matching_for(std::uint64_t seed) const {
    const auto fn = family().at(seed);
    std::vector<std::uint64_t> values(estar_edges_->size());
    fn.raw_many(estar_edges_->data(), estar_edges_->size(), values.data());
    std::vector<EdgeId> matched;
    for (std::size_t i = 0; i < estar_edges_->size(); ++i) {
      if (is_local_min(i, values.data())) matched.push_back((*estar_edges_)[i]);
    }
    return matched;
  }

  void prepare_seed(std::uint64_t /*seed*/,
                    const std::uint64_t* values) const override {
    std::vector<std::uint8_t>& covered = covered_scratch();
    covered.assign(g_->num_nodes(), 0);
    for (std::size_t i = 0; i < estar_edges_->size(); ++i) {
      if (!is_local_min(i, values)) continue;
      const EdgeId e = (*estar_edges_)[i];
      covered[g_->edge(e).u] = 1;
      covered[g_->edge(e).v] = 1;
    }
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* /*values*/) const override {
    const std::vector<std::uint8_t>& covered = covered_scratch();
    double q = 0.0;
    for (std::uint64_t v = range_begin; v < range_end; ++v) {
      if ((*in_B_)[v] && covered[v] != 0) {
        q += static_cast<double>((*alive_degree_)[v]);
      }
    }
    return q;
  }

  /// Accumulable ranges partition the node set; term_count() stays the E*
  /// edge count — the model aggregation size the round charges depend on.
  std::uint64_t range_count() const override { return g_->num_nodes(); }
  std::uint64_t term_count() const override { return estar_edges_->size(); }

 private:
  static std::vector<std::uint8_t>& covered_scratch() {
    thread_local std::vector<std::uint8_t> covered;
    return covered;
  }

  /// Local-min test over precomputed priorities; values is indexed by E*
  /// edge position (identical comparisons to the former per-edge raw()).
  bool is_local_min(std::size_t i, const std::uint64_t* values) const {
    const EdgeId e = (*estar_edges_)[i];
    const std::uint64_t ze = values[i];
    const auto beats = [&](EdgeId f) {
      const std::uint64_t zf = values[edge_pos_[f]];
      return zf < ze || (zf == ze && f < e);
    };
    for (NodeId endpoint : {g_->edge(e).u, g_->edge(e).v}) {
      for (EdgeId f : (*estar_incident_)[endpoint]) {
        if (f != e && beats(f)) return false;
      }
    }
    return true;
  }

  const Graph* g_;
  const std::vector<EdgeId>* estar_edges_;
  const std::vector<std::vector<EdgeId>>* estar_incident_;
  const std::vector<bool>* in_B_;
  const std::vector<std::uint32_t>* alive_degree_;
  std::vector<std::size_t> edge_pos_;  ///< EdgeId -> position in estar_edges
};

}  // namespace

DetMatchingResult det_maximal_matching(const Graph& g,
                                       const DetMatchingConfig& config) {
  mpc::Cluster cluster(mpc::provision(config.cluster, g.num_nodes(),
                                      g.num_edges(), config.eps,
                                      config.space_headroom));
  return det_maximal_matching(cluster, g, config);
}

DetMatchingResult det_maximal_matching(mpc::Cluster& cluster, const Graph& g,
                                       const DetMatchingConfig& config) {
  const sparsify::Params params =
      sparsify::params_for(config.eps, g.num_nodes());
  DetMatchingResult result;
  std::vector<bool> alive(g.num_nodes(), true);
  obs::Span pipeline_span(cluster.trace(), "matching/pipeline");
  // Distributed state a phase checkpoint persists: the edge list plus the
  // per-node alive/matched flags.
  const std::uint64_t phase_words = 2 * g.num_edges() + g.num_nodes();

  while (graph::alive_edge_count(g, alive, cluster.executor()) > 0) {
    DMPC_CHECK_MSG(result.iterations < config.max_iterations,
                   "matching iteration cap exceeded");
    ++result.iterations;
    IterationReport report;
    report.iteration = result.iterations;
    obs::Span iter_span(cluster.trace(), "matching/iteration");
    iter_span.arg("iteration", report.iteration);

    // 1. Good nodes (Corollary 8).
    const auto good = [&] {
      const obs::Span span =
          cluster.phase("matching/phase/good_nodes", phase_words);
      return sparsify::select_matching_good_set(cluster, params, g, alive);
    }();
    report.cls = good.cls;
    report.edges_before = good.alive_edges;

    // 2. Sparsify E_0 -> E* (§3.2).
    const auto sparse = [&] {
      const obs::Span span =
          cluster.phase("matching/phase/sparsify", phase_words);
      return sparsify::sparsify_edges(cluster, params, g, good,
                                      config.sparsify);
    }();
    report.sparsify_stages = sparse.stages.size();
    report.estar_max_degree = sparse.max_degree;
    for (const sparsify::StageReport& s : sparse.stages) {
      report.invariant_degree_ratio =
          std::max(report.invariant_degree_ratio, s.invariant_degree_ratio);
      report.invariant_xv_ratio =
          std::min(report.invariant_xv_ratio, s.invariant_xv_ratio);
      report.window_multiplier =
          std::max(report.window_multiplier, s.window_multiplier);
    }

    // 3. Gather 2-hop neighborhoods of B-nodes in E* (space check, §3.3).
    obs::Span gather_span = cluster.phase("matching/phase/gather", phase_words);
    std::vector<EdgeId> estar_edges;
    std::vector<std::vector<EdgeId>> estar_incident(g.num_nodes());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!sparse.in_Estar[e]) continue;
      estar_edges.push_back(e);
      estar_incident[g.edge(e).u].push_back(e);
      estar_incident[g.edge(e).v].push_back(e);
    }
    {
      std::vector<std::uint64_t> two_hop(g.num_nodes(), 0);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!good.in_B[v]) continue;
        std::uint64_t words = estar_incident[v].size();
        for (EdgeId e : estar_incident[v]) {
          words += estar_incident[g.other_endpoint(e, v)].size();
        }
        two_hop[v] = 2 * words;  // 2 words per edge record
      }
      mpc::charge_two_hop_gather(cluster, two_hop, good.in_B,
                                 "matching/gather2hop");
    }
    gather_span.end();

    // 4-5. Derandomized Lemma-13 selection.
    obs::Span derand_span = cluster.phase("matching/phase/derand", phase_words);
    const auto alive_degree = graph::alive_degrees(g, alive, cluster.executor());
    const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_edges());
    hash::KWiseFamily family(domain, domain, /*k=*/2);
    SelectionObjective objective(g, family, estar_edges, estar_incident,
                                 good.in_B, alive_degree);
    derand::SelectionOptions selection;
    selection.label = "matching/selection";
    selection.mode = config.selection_mode;
    selection.batch = config.selection_batch;
    selection.threshold =
        kThresholdFactor * static_cast<double>(good.b_degree_mass);
    selection.salt = result.iterations;
    const derand::SearchResult committed =
        derand::select_seed(cluster, objective, family, selection);
    report.selection_trials = committed.trials;
    derand_span.arg("candidate_seeds", committed.trials);
    derand_span.arg("committed_seed", committed.seed);
    derand_span.end();

    const obs::Span commit_span =
        cluster.phase("matching/phase/commit", phase_words);
    const auto matched = objective.matching_for(committed.seed);
    DMPC_CHECK_MSG(!matched.empty(), "empty committed matching");
    report.matched_pairs = matched.size();
    for (EdgeId e : matched) {
      result.matching.push_back(e);
      alive[g.edge(e).u] = false;
      alive[g.edge(e).v] = false;
    }

    report.edges_after = graph::alive_edge_count(g, alive, cluster.executor());
    report.progress_fraction =
        static_cast<double>(report.edges_before - report.edges_after) /
        static_cast<double>(report.edges_before);
    // Lemma-13 progress series: one structured event per iteration (the
    // machine-readable successor of the old free-form debug line).
    if (auto* trace = cluster.trace(); obs::enabled(trace)) {
      trace->instant(
          "matching/progress",
          {obs::arg("iteration", report.iteration),
           obs::arg("edges_remaining",
                    static_cast<std::uint64_t>(report.edges_after)),
           obs::arg("good_node_fraction",
                    static_cast<double>(good.b_degree_mass) /
                        static_cast<double>(2 * good.alive_edges)),
           obs::arg("matched_pairs",
                    static_cast<std::uint64_t>(report.matched_pairs)),
           obs::arg("progress_fraction", report.progress_fraction)});
    }
    if (iter_span.active()) {
      iter_span.arg("edges_before",
                    static_cast<std::uint64_t>(report.edges_before));
      iter_span.arg("edges_after",
                    static_cast<std::uint64_t>(report.edges_after));
      iter_span.arg("class", static_cast<std::uint64_t>(report.cls));
    }
    result.reports.push_back(report);
  }

  DMPC_CHECK_MSG(graph::is_maximal_matching(g, result.matching),
                 "det_maximal_matching produced a non-maximal matching");
  result.metrics = cluster.metrics();
  result.recovery = cluster.recovery_stats();
  result.machine_space = cluster.space();
  return result;
}

}  // namespace dmpc::matching
