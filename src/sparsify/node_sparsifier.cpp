#include "sparsify/node_sparsifier.hpp"

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
using graph::NodeId;

StageWindows node_stage_windows(const Graph& g,
                                const std::vector<bool>& alive,
                                const std::vector<bool>& in_Q,
                                const std::vector<bool>& in_B,
                                const std::vector<std::uint32_t>& deg,
                                double q, double mult,
                                std::vector<std::uint64_t>& q_counts) {
  StageWindows windows;
  std::vector<std::uint32_t> node_pos(g.num_nodes(), kNoPosition);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v] && in_Q[v]) {
      node_pos[v] = static_cast<std::uint32_t>(windows.universe.size());
      windows.universe.push_back(v);
      windows.weights.push_back(
          deg[v] == 0 ? 0.0 : 1.0 / static_cast<double>(deg[v]));
    }
  }
  q_counts.assign(g.num_nodes(), 0);
  auto append = [&](NodeId owner, WindowKind kind) {
    const std::uint64_t begin = windows.items.size();
    for (NodeId u : g.neighbors(owner)) {
      if (alive[u] && in_Q[u]) {
        DMPC_CHECK_MSG(node_pos[u] != kNoPosition,
                       "node sparsifier: window item outside Q");
        windows.items.push_back(node_pos[u]);
      }
    }
    if (kind == WindowKind::kUpper) {
      q_counts[owner] = windows.items.size() - begin;
    }
    add_window(windows, begin, windows.items.size(), kind, q, mult);
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v] && in_Q[v]) append(v, WindowKind::kUpper);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v] && in_B[v]) append(v, WindowKind::kMass);
  }
  // Global two-sided window over Q_{j-1} itself.
  const std::uint64_t begin = windows.items.size();
  for (std::uint32_t pos = 0; pos < windows.universe.size(); ++pos) {
    windows.items.push_back(pos);
  }
  add_window(windows, begin, windows.items.size(), WindowKind::kBoth, q, mult);
  return windows;
}

NodeSparsifyResult sparsify_nodes(mpc::Cluster& cluster, const Params& params,
                                  const Graph& g,
                                  const std::vector<bool>& alive,
                                  const MisGoodSet& good,
                                  const SparsifyConfig& config) {
  NodeSparsifyResult result;
  result.in_Qprime = good.in_Q0;

  const std::uint32_t planned = params.stages_for_class(good.cls);
  const std::uint64_t group = params.group_size();
  const double q = params.sample_probability();
  const auto deg = graph::alive_degrees(g, alive, cluster.executor());

  const std::uint64_t domain = std::max<std::uint64_t>(2, g.num_nodes());
  hash::KWiseFamily family(domain, domain, config.hash_k);
  const auto cutoff =
      static_cast<std::uint64_t>(q * static_cast<double>(family.p()));

  auto q_degree = [&](NodeId v) {
    std::uint32_t d = 0;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && result.in_Qprime[u]) ++d;
    }
    return d;
  };
  auto max_q_degree = [&]() {
    std::uint32_t best = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (alive[v] && result.in_Qprime[v]) best = std::max(best, q_degree(v));
    }
    return best;
  };

  // Baselines for the invariant measurements.
  std::vector<std::uint32_t> deg_q0(g.num_nodes(), 0);
  std::vector<double> hmass_q0(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (alive[u] && good.in_Q0[u]) {
        ++deg_q0[v];
        hmass_q0[v] += 1.0 / static_cast<double>(deg[u]);
      }
    }
  }

  std::uint32_t stage = 0;
  std::uint32_t extra_used = 0;
  while (true) {
    const bool planned_stage = stage < planned;
    if (!planned_stage) {
      if (max_q_degree() <= params.degree_cap() ||
          extra_used >= config.extra_stage_cap) {
        break;
      }
      ++extra_used;
    }
    ++stage;
    // Each stage rewrites the survivor set from the previous one, so it is a
    // recovery-safe boundary for phase-granularity checkpoints.
    obs::Span stage_span = cluster.phase("mis_sparsify/stage", g.num_nodes());
    stage_span.arg("stage", static_cast<std::uint64_t>(stage));

    // --- Distribute neighbor lists into per-owner windows. ---
    double mult = config.slack_factor;
    std::vector<std::uint64_t> counts;
    StageWindows windows = node_stage_windows(
        g, alive, result.in_Qprime, good.in_B, deg, q, mult, counts);
    mpc::build_machine_groups(cluster, counts, group, /*arity=*/1,
                              "mis_sparsify/distribute");

    // --- Derandomize with adaptive window escalation. ---
    derand::SearchResult committed;
    std::uint64_t total_trials = 0;
    // One objective (and one PowerTable build) per stage: escalation only
    // rewrites the window bounds, read through the StageWindows pointer.
    StageObjective objective(family, cutoff, windows);
    for (std::uint32_t attempt = 0;; ++attempt) {
      DMPC_CHECK_MSG(attempt <= config.max_escalations,
                     "node sparsifier: window escalation cap reached");
      if (attempt > 0) {
        mult *= 2.0;
        for (StageWindow& w : windows.owners) set_bounds(w, windows, q, mult);
      }
      derand::SearchOptions opts;
      opts.threshold = static_cast<double>(windows.owners.size());
      opts.max_trials = config.trials_per_window;
      opts.label = "mis_sparsify/seed";
      // Decorrelate committed functions across stages (see SearchOptions).
      opts.seed_base = 0x9E3779B97F4A7C15ULL * (stage + 1);
      opts.seed_stride = 0xBF58476D1CE4E5B9ULL;
      bool found = true;
      try {
        committed =
            derand::find_seed(cluster, objective, family.seed_count(), opts);
      } catch (const CheckFailure&) {
        found = false;
      }
      total_trials += found ? committed.trials : config.trials_per_window;
      if (found) break;
      if (auto* trace = cluster.trace(); obs::enabled(trace)) {
        trace->instant("mis_sparsify/escalate",
                       {obs::arg("stage", static_cast<std::uint64_t>(stage)),
                        obs::arg("window_multiplier", mult * 2.0)});
      }
      DMPC_DEBUG("node sparsify stage " << stage << ": escalating window to x"
                                        << mult * 2.0);
    }

    // --- Apply: Q_j = {v in Q_{j-1} : h(v) < cutoff}. ---
    const auto fn = family.at(committed.seed);
    std::vector<bool> next = result.in_Qprime;
    std::uint64_t kept_nodes = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!next[v]) continue;
      if (fn.raw(v) >= cutoff) {
        next[v] = false;
      } else {
        ++kept_nodes;
      }
    }
    if (kept_nodes == 0) {
      // Finite-n guard: never sparsify to the empty set — keep Q_{j-1} and
      // stop; the selection step's space check remains the arbiter.
      DMPC_WARN("node sparsify stage " << stage
                                       << " would empty Q; stopping early");
      break;
    }
    result.in_Qprime = std::move(next);

    // --- Measure the paper-form invariants (Lemmas 17 & 18). ---
    StageReport report;
    report.stage = stage;
    report.seed = committed.seed;
    report.trials = total_trials;
    report.window_multiplier = mult;
    report.machines = windows.owners.size();
    const double shrink = std::pow(q, static_cast<double>(stage));
    const double cls_lower = params.class_lower(good.cls);
    double worst_deg_ratio = 0.0;
    double worst_h_ratio = 2.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!alive[v]) continue;
      if (result.in_Qprime[v] && deg_q0[v] > 0) {
        const double bound =
            shrink * static_cast<double>(deg_q0[v]) + params.pow_nd(3.0);
        worst_deg_ratio =
            std::max(worst_deg_ratio,
                     static_cast<double>(q_degree(v)) / bound);
      }
      if (good.in_B[v] && hmass_q0[v] > 0) {
        double mass = 0.0;
        for (NodeId u : g.neighbors(v)) {
          if (alive[u] && result.in_Qprime[u]) {
            mass += 1.0 / static_cast<double>(deg[u]);
          }
        }
        const double expect = shrink * hmass_q0[v];
        if (expect * cls_lower >= 1.0) {  // above measurement resolution
          worst_h_ratio = std::min(worst_h_ratio, mass / expect);
        }
      }
    }
    report.invariant_degree_ratio = worst_deg_ratio;
    report.invariant_xv_ratio = worst_h_ratio;
    report.max_degree_after = max_q_degree();
    if (stage_span.active()) {
      stage_span.arg("candidate_seeds", report.trials);
      stage_span.arg("committed_seed", report.seed);
      stage_span.arg("kept_nodes", kept_nodes);
      stage_span.arg("window_multiplier", report.window_multiplier);
    }
    result.stages.push_back(report);
  }
  result.max_q_degree = max_q_degree();
  return result;
}

}  // namespace dmpc::sparsify
