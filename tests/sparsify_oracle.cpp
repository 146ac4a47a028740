#include "sparsify_oracle.hpp"

#include <algorithm>
#include <cmath>

#include "derand/seed_search.hpp"
#include "hash/kwise.hpp"
#include "mpc/distribution.hpp"
#include "mpc/primitives.hpp"
#include "obs/trace.hpp"
#include "sparsify/degree_classes.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace dmpc::oracle {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using sparsify::add_window;
using sparsify::classify;
using sparsify::DegreeClasses;
using sparsify::kNoPosition;
using sparsify::Params;
using sparsify::set_bounds;
using sparsify::SparsifyConfig;
using sparsify::StageObjective;
using sparsify::StageReport;
using sparsify::StageWindow;
using sparsify::StageWindows;
using sparsify::WindowKind;

namespace {

/// Charge the constant number of Lemma-4 passes the selection uses (§3.1:
/// degrees, X membership, and the per-class mass aggregation).
void charge_selection(mpc::Cluster& cluster, EdgeId alive_edges,
                      const std::string& label) {
  const std::uint64_t records = std::max<EdgeId>(2 * alive_edges, 2);
  const std::uint64_t rounds = 3 * mpc::sort_round_cost(cluster, records);
  mpc::check_blocked_layout(cluster, records, 2, label);
  cluster.charge(label, rounds, 2 * records);
}
/// Degree of every node restricted to edges whose mask bit is set (the
/// previous graph::masked_degrees).
std::vector<std::uint32_t> masked_degrees(const Graph& g,
                                          const std::vector<bool>& edge_mask) {
  std::vector<std::uint32_t> deg(g.num_nodes(), 0);
  EdgeId e = 0;
  for (const graph::Edge& ed : g.edges()) {
    if (edge_mask[e++]) {
      ++deg[ed.u];
      ++deg[ed.v];
    }
  }
  return deg;
}

/// The previous mask form of sparsify::edge_stage_windows.
StageWindows mask_stage_windows(const Graph& g, const std::vector<bool>& in_E,
                                const std::vector<bool>& in_B,
                                const std::vector<std::vector<EdgeId>>& xv,
                                double q, double mult,
                                std::vector<std::uint64_t>& degree_counts) {
  StageWindows windows;
  // E_{j-1} ascending is the point universe. Type-A windows are built by
  // count / prefix-sum / scatter straight into the item array; they are
  // integer counts, so item order inside a window cannot change a value.
  std::vector<std::uint32_t> edge_pos(g.num_edges(), kNoPosition);
  std::vector<std::uint64_t> offset(g.num_nodes() + 1, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!in_E[e]) continue;
    DMPC_CHECK_MSG(windows.universe.size() < kNoPosition,
                   "edge sparsifier: E_{j-1} exceeds 32-bit positions");
    edge_pos[e] = static_cast<std::uint32_t>(windows.universe.size());
    windows.universe.push_back(e);
    ++offset[g.edge(e).u + 1];
    ++offset[g.edge(e).v + 1];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) offset[v + 1] += offset[v];
  windows.items.resize(offset[g.num_nodes()]);
  std::vector<std::uint64_t> fill(offset.begin(), offset.end() - 1);
  for (std::uint32_t pos = 0; pos < windows.universe.size(); ++pos) {
    const graph::Edge& edge = g.edge(windows.universe[pos]);
    windows.items[fill[edge.u]++] = pos;
    windows.items[fill[edge.v]++] = pos;
  }
  degree_counts.assign(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    degree_counts[v] = offset[v + 1] - offset[v];
    add_window(windows, offset[v], offset[v + 1], WindowKind::kUpper, q,
               mult);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!in_B[v]) continue;
    const std::uint64_t begin = windows.items.size();
    for (EdgeId e : xv[v]) {
      DMPC_CHECK_MSG(edge_pos[e] != kNoPosition,
                     "edge sparsifier: X(v) item outside E_{j-1}");
      windows.items.push_back(edge_pos[e]);
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

}  // namespace

MaskGoodSet select_matching_good_set(mpc::Cluster& cluster,
                                     const Params& params, const Graph& g,
                                     const std::vector<bool>& alive) {
  MaskGoodSet out;
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());
  out.alive_edges = graph::alive_edge_count(g, alive, cluster.executor());
  DMPC_CHECK_MSG(out.alive_edges > 0, "good-node selection on empty graph");
  charge_selection(cluster, out.alive_edges, "good_nodes/matching");

  // X membership: v in X iff 3 * |{u ~ v alive : d(u) <= d(v)}| >= d(v).
  const NodeId n = g.num_nodes();
  std::vector<bool> in_X(n, false);
  std::uint64_t x_mass = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!alive[v] || deg[v] == 0) continue;
    std::uint64_t low = 0;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && deg[u] <= deg[v]) ++low;
    }
    if (3 * low >= deg[v]) {
      in_X[v] = true;
      x_mass += deg[v];
    }
  }
  // Lemma 3: sum_{v in X} d(v) >= |E| / 2.
  DMPC_CHECK_MSG(2 * x_mass >= out.alive_edges,
                 "Lemma 3 violated: X mass " << x_mass << " vs |E| "
                                             << out.alive_edges);

  // Class masses over B_i = C_i ∩ X; pick the heaviest class.
  const DegreeClasses classes = classify(params, deg);
  std::vector<std::uint64_t> b_mass(params.inv_delta + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (in_X[v]) b_mass[classes.class_of[v]] += deg[v];
  }
  std::uint32_t best = 1;
  for (std::uint32_t i = 2; i <= params.inv_delta; ++i) {
    if (b_mass[i] > b_mass[best]) best = i;
  }
  // Corollary 8: the best class carries >= (delta/2)|E| degree mass.
  DMPC_CHECK_MSG(
      2 * params.inv_delta * b_mass[best] >= out.alive_edges,
      "Corollary 8 violated: best class mass " << b_mass[best]);
  out.cls = best;
  out.b_degree_mass = b_mass[best];

  // B, X(v), and E_0.
  out.in_B.assign(n, false);
  out.in_E0.assign(g.num_edges(), false);
  out.xv.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    if (!in_X[v] || classes.class_of[v] != best) continue;
    out.in_B[v] = true;
    auto nb = g.neighbors(v);
    auto inc = g.incident_edges(v);
    for (std::size_t idx = 0; idx < nb.size(); ++idx) {
      const NodeId u = nb[idx];
      if (alive[u] && deg[u] <= deg[v]) {
        out.xv[v].push_back(inc[idx]);
        out.in_E0[inc[idx]] = true;
      }
    }
    // Definition of X guarantees |X(v)| >= d(v)/3.
    DMPC_CHECK(3 * out.xv[v].size() >= deg[v]);
  }
  return out;
}

MaskSparsifyResult sparsify_edges(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g, const MaskGoodSet& good,
                                  const SparsifyConfig& config) {
  MaskSparsifyResult result;
  result.in_Estar = good.in_E0;
  result.xv_star = good.xv;

  const std::uint32_t planned = params.stages_for_class(good.cls);
  const std::uint64_t group = params.group_size();
  const double q = params.sample_probability();
  const double nd3 = params.pow_nd(3.0);

  // Baselines for the invariant measurements.
  const auto deg_e0 = masked_degrees(g, good.in_E0);
  std::vector<std::uint64_t> xv0_size(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) xv0_size[v] = good.xv[v].size();

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
      const auto deg_now = masked_degrees(g, result.in_Estar);
      const std::uint32_t max_deg =
          *std::max_element(deg_now.begin(), deg_now.end());
      if (max_deg <= params.degree_cap() ||
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
    StageWindows windows = mask_stage_windows(
        g, result.in_Estar, good.in_B, result.xv_star, q, mult, counts);
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
    report.edges_before = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (result.in_Estar[e]) ++report.edges_before;
    }
    std::vector<bool> next = result.in_Estar;
    EdgeId kept = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!next[e]) continue;
      if (fn.raw(e) >= cutoff) {
        next[e] = false;
      } else {
        ++kept;
      }
    }
    if (kept == 0) {
      // Finite-n guard: never sparsify to the empty set — keep E_{j-1} and
      // stop; the selection step's space check remains the arbiter.
      DMPC_WARN("edge sparsify stage " << stage
                                       << " would empty E; stopping early");
      break;
    }
    result.in_Estar = std::move(next);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v]) continue;
      auto& list = result.xv_star[v];
      std::erase_if(list, [&](EdgeId e) { return !result.in_Estar[e]; });
    }

    // --- Measure the paper-form invariants (Lemmas 10 & 11). ---
    const auto deg_now = masked_degrees(g, result.in_Estar);
    const double shrink = std::pow(q, static_cast<double>(stage));
    report.edges_after = kept;
    report.max_degree_after =
        *std::max_element(deg_now.begin(), deg_now.end());
    double worst_deg_ratio = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (deg_e0[v] == 0) continue;
      const double bound = shrink * static_cast<double>(deg_e0[v]) + nd3;
      worst_deg_ratio = std::max(
          worst_deg_ratio, static_cast<double>(deg_now[v]) / bound);
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    double worst_xv_ratio = 2.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!good.in_B[v] || xv0_size[v] == 0) continue;
      const double expect = shrink * static_cast<double>(xv0_size[v]);
      if (expect < 1.0) continue;  // below resolution — nothing to measure
      worst_xv_ratio = std::min(
          worst_xv_ratio,
          static_cast<double>(result.xv_star[v].size()) / expect);
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
  {
    const auto deg_final = masked_degrees(g, result.in_Estar);
    result.max_degree = *std::max_element(deg_final.begin(), deg_final.end());
  }
  return result;
}

}  // namespace dmpc::oracle
