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
using LocalId = graph::Residual::LocalId;

graph::CsrLists gather_two_hop(mpc::Cluster& cluster,
                               const graph::Residual& residual,
                               const std::vector<LocalId>& b_nodes,
                               const std::vector<LocalId>& estar) {
  graph::CsrLists incident = residual.incidence(estar);
  std::vector<NodeId> centers;
  std::vector<std::uint64_t> words;
  for (LocalId v : b_nodes) {
    std::uint64_t w = incident[v].size();
    for (std::uint32_t pos : incident[v]) {
      w += incident[residual.other_endpoint(estar[pos], v)].size();
    }
    centers.push_back(residual.node_id(v));
    words.push_back(2 * w);  // 2 words per edge record
  }
  mpc::charge_two_hop_gather(cluster, centers, words, "matching/gather2hop");
  return incident;
}

namespace {

/// The Lemma-13 selection objective. For hash seed s, every E* edge gets
/// priority z_e = h_s(e); E_h = edges that are local minima among their E*
/// neighbors (ties by id) — always a matching. Value = sum of alive-degrees
/// of B-nodes covered by E_h.
//
// Range form: the E* edge list (original ids) is the bound point universe,
// so the lane-parallel kernel computes every priority z_e once per seed, and
// the local-min test reads competitors' priorities by E* position through
// E*'s incidence. The covered bitmap is a per-seed prepass into
// thread-local scratch; ranges are the B nodes, summed in ascending order.
class SelectionObjective final : public derand::RangeObjective {
 public:
  SelectionObjective(const graph::Residual& residual,
                     const hash::KWiseFamily& family,
                     const std::vector<LocalId>& estar,
                     const graph::CsrLists& estar_incident,
                     const std::vector<LocalId>& b_nodes)
      : residual_(&residual),
        estar_(&estar),
        estar_incident_(&estar_incident),
        b_nodes_(&b_nodes) {
    for (LocalId e : estar) ids_.push_back(residual.edge_id(e));
    bind_points(family, ids_.data(), ids_.size());
  }

  /// E* positions of the committed matching for a seed (used after the
  /// search picks one), ascending.
  std::vector<std::uint32_t> matching_for(std::uint64_t seed) const {
    const auto fn = family().at(seed);
    std::vector<std::uint64_t> values(ids_.size());
    fn.raw_many(ids_.data(), ids_.size(), values.data());
    std::vector<std::uint32_t> matched;
    for (std::uint32_t i = 0; i < ids_.size(); ++i) {
      if (is_local_min(i, values.data())) matched.push_back(i);
    }
    return matched;
  }

  void prepare_seed(std::uint64_t /*seed*/,
                    const std::uint64_t* values) const override {
    std::vector<std::uint8_t>& covered = covered_scratch();
    covered.assign(residual_->num_nodes(), 0);
    for (std::uint32_t i = 0; i < ids_.size(); ++i) {
      if (!is_local_min(i, values)) continue;
      const auto& ends = residual_->edge((*estar_)[i]);
      covered[ends.u] = 1;
      covered[ends.v] = 1;
    }
  }

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t /*seed*/,
                          const std::uint64_t* /*values*/) const override {
    const std::vector<std::uint8_t>& covered = covered_scratch();
    double q = 0.0;
    for (std::uint64_t i = range_begin; i < range_end; ++i) {
      const LocalId v = (*b_nodes_)[i];
      if (covered[v] != 0) q += static_cast<double>(residual_->degree(v));
    }
    return q;
  }

  /// Accumulable ranges are the B nodes; term_count() stays the E* edge
  /// count — the model aggregation size the round charges depend on.
  std::uint64_t range_count() const override { return b_nodes_->size(); }
  std::uint64_t term_count() const override { return ids_.size(); }

 private:
  static std::vector<std::uint8_t>& covered_scratch() {
    thread_local std::vector<std::uint8_t> covered;
    return covered;
  }

  /// Local-min test over precomputed priorities; values is indexed by E*
  /// position, ties break by original edge id.
  bool is_local_min(std::uint32_t i, const std::uint64_t* values) const {
    const std::uint64_t ze = values[i];
    const auto& ends = residual_->edge((*estar_)[i]);
    for (LocalId endpoint : {ends.u, ends.v}) {
      for (std::uint32_t f : (*estar_incident_)[endpoint]) {
        if (f == i) continue;
        const std::uint64_t zf = values[f];
        if (zf < ze || (zf == ze && ids_[f] < ids_[i])) return false;
      }
    }
    return true;
  }

  const graph::Residual* residual_;
  const std::vector<LocalId>* estar_;
  const graph::CsrLists* estar_incident_;
  const std::vector<LocalId>* b_nodes_;
  std::vector<EdgeId> ids_;  ///< Original id of each E* position.
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
  graph::Residual residual(g, std::vector<bool>(g.num_nodes(), true));
  obs::Span pipeline_span(cluster.trace(), "matching/pipeline");
  // Distributed state a phase checkpoint persists: the edge list plus the
  // per-node alive/matched flags.
  const std::uint64_t phase_words = 2 * g.num_edges() + g.num_nodes();

  while (residual.num_edges() > 0) {
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
      return sparsify::select_matching_good_set(cluster, params, residual);
    }();
    report.cls = good.cls;
    report.edges_before = good.alive_edges;

    // 2. Sparsify E_0 -> E* (§3.2).
    const auto sparse = [&] {
      const obs::Span span =
          cluster.phase("matching/phase/sparsify", phase_words);
      return sparsify::sparsify_edges(cluster, params, g, residual, good,
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
    const graph::CsrLists estar_incident =
        gather_two_hop(cluster, residual, good.b_nodes, sparse.estar);
    gather_span.end();

    // 4-5. Derandomized Lemma-13 selection.
    obs::Span derand_span = cluster.phase("matching/phase/derand", phase_words);
    const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_edges());
    hash::KWiseFamily family(domain, domain, /*k=*/2);
    SelectionObjective objective(residual, family, sparse.estar,
                                 estar_incident, good.b_nodes);
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
    std::vector<std::uint8_t> removed(residual.num_nodes(), 0);
    for (std::uint32_t pos : matched) {
      const LocalId e = sparse.estar[pos];
      result.matching.push_back(residual.edge_id(e));
      removed[residual.edge(e).u] = 1;
      removed[residual.edge(e).v] = 1;
    }
    residual.remove(removed);  // good and sparse now hold stale ids

    report.edges_after = residual.num_edges();
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
