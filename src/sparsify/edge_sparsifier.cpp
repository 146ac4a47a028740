#include "sparsify/edge_sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "derand/seed_search.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace dmpc::sparsify {

using graph::Graph;

StageWindows edge_stage_windows(const graph::Residual& residual,
                                std::span<const LocalId> edges,
                                std::span<const LocalId> b_nodes,
                                const graph::CsrLists& xv, double q,
                                double mult,
                                std::vector<std::uint64_t>& degree_counts) {
  DMPC_CHECK_MSG(edges.size() < kNoPosition,
                 "edge sparsifier: E_{j-1} exceeds 32-bit positions");
  DMPC_CHECK(xv.size() == b_nodes.size());
  StageWindows windows;
  // E_{j-1} ascending is the point universe. Type-A windows are each node's
  // incident positions; they are integer counts, so item order inside a
  // window cannot change a value.
  windows.universe.reserve(edges.size());
  for (LocalId e : edges) windows.universe.push_back(residual.edge_id(e));
  graph::CsrLists incident =
      residual.incidence(edges, xv.items.size() + edges.size());
  const std::vector<std::uint64_t>& offsets = incident.offsets;
  windows.items = std::move(incident.items);
  std::size_t owners = 1;  // exact, so owner growth cannot fragment the heap
  for (LocalId v = 0; v < residual.num_nodes(); ++v) {
    owners += offsets[v + 1] > offsets[v] ? 1 : 0;
  }
  for (std::size_t i = 0; i < xv.size(); ++i) owners += xv[i].empty() ? 0 : 1;
  windows.owners.reserve(owners);
  degree_counts.resize(residual.num_nodes());
  for (LocalId v = 0; v < residual.num_nodes(); ++v) {
    degree_counts[v] = offsets[v + 1] - offsets[v];
    add_window(windows, offsets[v], offsets[v + 1], WindowKind::kUpper, q,
               mult);
  }
  // X(v) and v's incident E_{j-1} positions are both ascending, so one
  // merge finds each X(v) item's position.
  for (std::size_t i = 0; i < xv.size(); ++i) {
    const std::uint64_t begin = windows.items.size();
    std::uint64_t at = offsets[b_nodes[i]];
    const std::uint64_t stop = offsets[b_nodes[i] + 1];
    for (LocalId e : xv[i]) {
      while (at < stop && edges[windows.items[at]] < e) ++at;
      DMPC_CHECK_MSG(at < stop && edges[windows.items[at]] == e,
                     "edge sparsifier: X(v) item outside E_{j-1}");
      windows.items.push_back(windows.items[at]);
    }
    add_window(windows, begin, windows.items.size(), WindowKind::kLower, q,
               mult);
  }
  // Global window (one Lemma-4 aggregation): the total kept count must
  // track q * |E_{j-1}|. At finite n the per-owner windows can all be
  // trivially wide (counts of a few dozen admit no non-trivial satisfiable
  // window), and without this constraint the degenerate all-keep / all-drop
  // polynomials would count as good; the global window rejects them and
  // guarantees per-stage progress.
  const std::uint64_t begin = windows.items.size();
  for (std::uint32_t pos = 0; pos < windows.universe.size(); ++pos) {
    windows.items.push_back(pos);
  }
  add_window(windows, begin, windows.items.size(), WindowKind::kBoth, q, mult);
  return windows;
}

EdgeSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g,
                                  const graph::Residual& residual,
                                  const MatchingGoodSet& good,
                                  const SparsifyConfig& config) {
  EdgeSparsifyResult result;
  result.estar = good.e0;
  result.xv_star = good.xv;

  const std::uint32_t planned = params.stages_for_class(good.cls);
  const std::uint64_t group = params.group_size();
  const double q = params.sample_probability();
  const double nd3 = params.pow_nd(3.0);

  // Baseline for the invariant measurements.
  const auto deg_e0 = residual.degrees(good.e0);
  result.max_degree = *std::max_element(deg_e0.begin(), deg_e0.end());

  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_edges());
  hash::KWiseFamily family(domain, domain, config.hash_k);
  const auto cutoff = static_cast<std::uint64_t>(
      q * static_cast<double>(family.p()));

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    const bool planned_stage = stage < planned;
    if (!planned_stage) {
      // §3.3 requires degrees <= 2 n^{4 delta} in E*; at finite n the
      // window slack can leave an overshoot, fixed by extra stages.
      if (result.max_degree <= params.degree_cap() ||
          extra_used >= config.extra_stage_cap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    obs::Span stage_span = cluster.phase("sparsify/stage", g.num_edges());
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute: type-A machine groups (every node's incident E_{j-1}
    // list, upper windows) and type-B groups (X(v) ∩ E_{j-1} for v in B,
    // lower windows). ---
    double mult = config.slack_factor;
    std::vector<std::uint64_t> counts;
    StageWindows windows =
        edge_stage_windows(residual, result.estar, good.b_nodes,
                           result.xv_star, q, mult, counts);
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/2,
                              "sparsify/distribute");

    // --- Derandomize the stage with adaptive window escalation. ---
    derand::SearchResult committed;
    std::uint64_t total_trials = 0;
    // One objective (and one PowerTable build) per stage: escalation only
    // widens lo/hi, which the objective reads through the StageWindows
    // pointer.
    StageObjective objective(family, cutoff, windows);
    for (std::uint32_t attempt = 0;; ++attempt) {
      DMPC_CHECK_MSG(attempt <= config.max_escalations,
                     "edge sparsifier: window escalation cap reached");
      if (attempt > 0) {
        mult *= 2.0;
        for (StageWindow& w : windows.owners) set_bounds(w, windows, q, mult);
      }
      derand::SearchOptions opts;
      opts.threshold = static_cast<double>(windows.owners.size());
      opts.max_trials = config.trials_per_window;
      opts.label = "sparsify/seed";
      // Decorrelate committed functions across stages (see SearchOptions).
      opts.seed_base = 0x9E3779B97F4A7C15ULL * (stage + 1);
      opts.seed_stride = 0xBF58476D1CE4E5B9ULL;
      bool found = true;
      try {
        committed = derand::find_seed(cluster, objective,
                                      family.seed_count(), opts);
      } catch (const CheckFailure&) {
        found = false;
      }
      total_trials += found ? committed.trials : config.trials_per_window;
      if (found) break;
      if (auto* trace = cluster.trace(); obs::enabled(trace)) {
        trace->instant("sparsify/escalate",
                       {obs::arg("stage", static_cast<std::uint64_t>(stage)),
                        obs::arg("window_multiplier", mult * 2.0)});
      }
      DMPC_DEBUG("sparsify stage " << stage << ": escalating window to x"
                                   << mult * 2.0);
    }

    // --- Apply the committed hash: E_j = {e in E_{j-1} : h(e) < cutoff}. ---
    const auto fn = family.at(committed.seed);
    StageReport report;
    report.stage = stage;
    report.seed = committed.seed;
    report.trials = total_trials;
    report.window_multiplier = mult;
    report.machines = windows.owners.size();
    report.edges_before = result.estar.size();
    std::vector<std::uint64_t> values(windows.universe.size());
    fn.raw_many(windows.universe.data(), values.size(), values.data());
    std::vector<LocalId> next;
    for (std::size_t pos = 0; pos < values.size(); ++pos) {
      if (values[pos] < cutoff) next.push_back(result.estar[pos]);
    }
    if (next.empty()) {
      // Finite-n guard: never sparsify to the empty set — keep E_{j-1} and
      // stop; the selection step's space check remains the arbiter.
      DMPC_WARN("edge sparsify stage " << stage
                                       << " would empty E; stopping early");
      break;
    }
    result.estar = std::move(next);
    result.xv_star.keep_if([&](LocalId e) {
      return std::binary_search(result.estar.begin(), result.estar.end(), e);
    });

    // --- Measure the paper-form invariants (Lemmas 10 & 11). ---
    const auto deg_now = residual.degrees(result.estar);
    const double shrink = std::pow(q, static_cast<double>(stage));
    report.edges_after = result.estar.size();
    report.max_degree_after =
        *std::max_element(deg_now.begin(), deg_now.end());
    result.max_degree = report.max_degree_after;
    double worst_deg_ratio = 0.0;
    for (LocalId v = 0; v < residual.num_nodes(); ++v) {
      if (deg_e0[v] == 0) continue;
      const double bound = shrink * static_cast<double>(deg_e0[v]) + nd3;
      worst_deg_ratio = std::max(
          worst_deg_ratio, static_cast<double>(deg_now[v]) / bound);
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    double worst_xv_ratio = 2.0;
    for (std::size_t i = 0; i < good.xv.size(); ++i) {
      if (good.xv[i].empty()) continue;
      const double expect = shrink * static_cast<double>(good.xv[i].size());
      if (expect < 1.0) continue;  // below resolution — nothing to measure
      worst_xv_ratio = std::min(
          worst_xv_ratio,
          static_cast<double>(result.xv_star[i].size()) / expect);
    }
    report.invariant_xv_ratio = worst_xv_ratio;
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("edges_before",
                     static_cast<std::uint64_t>(report.edges_before));
      stage_span.arg("edges_after",
                     static_cast<std::uint64_t>(report.edges_after));
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  return result;
}

}  // namespace dmpc::sparsify
