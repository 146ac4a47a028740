// bench_runner — the experiment registry: every experiment E1..E20 is
// defined here, once, and written as one machine-readable BENCH_<EXP>.json
// artifact. tools/scaling_check gates the artifacts; bench/repro_report
// renders them as the EXPERIMENTS.md tables.
//
//   ./bench_runner --experiments=e1,e2,e8 --out=artifacts
//                  [--quick] [--threads=1] [--commit=<sha>] [--progress]
//   ./bench_runner --experiments=all --out=artifacts --quick
//
// Each artifact uses the bench_json.hpp envelope plus:
//   "axis":   name of the sweep variable ("n", "delta", "family", ...)
//   "threads": host threads used for Solver-driven experiments
//   "points": [{"axis_value": <int|string>,
//               "model":    {<integer-exact, thread-independent values>},
//               "registry": {<model section of the metrics-registry delta
//                             for this point (obs/metrics_registry.hpp);
//                             absent on E19/E20>},
//               "wall":     {"wall_ms", "peak_rss_bytes"},
//               "profile":  {<per-round load-skew timeline; E1/E2 only
//                             (obs/profiler.hpp); model-deterministic and
//                             gated by tools/trace_analyze --gate>},
//               "certificate": {"passed", "claims"}   <E1/E2 only>,
//               "rss":      {"build_peak_rss_bytes", "rss_budget_bytes"}
//                           <E19 shard-build points only>}, ...]
//
// Determinism contract: for a fixed (--experiments, --quick) configuration
// the "model" and "registry" subtrees are byte-identical across runs and
// across --threads values; "wall", "rss" and "toolchain" are not. tools/
// scaling_check gates only on model fields (plus E19's rss bound), fitting
// the theorem envelopes (E1/E2: rounds vs log n; E6: rounds vs log Delta;
// E8: peak load <= S) and comparing against bench/baselines/.
//
// Identity experiments (E17-E20) assert their contract while they run, E18
// down to the JSONL trace: a divergent answer or a failed certificate claim
// (E1/E2) fails the run (exit 1).
//
// Fraction-valued quantities are stored as parts-per-million integers
// (bench::ppm) so the golden subtrees contain no floats.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/report_json.hpp"
#include "api/solver.hpp"
#include "apps/reductions.hpp"
#include "baselines/israeli_itai.hpp"
#include "baselines/luby_matching.hpp"
#include "baselines/luby_mis.hpp"
#include "bench_json.hpp"
#include "cclique/cc_mis.hpp"
#include "congest/congest_mis.hpp"
#include "exec/parallel.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/residual.hpp"
#include "lowdeg/lowdeg_solver.hpp"
#include "matching/det_matching.hpp"
#include "mis/det_mis.hpp"
#include "mpc/cluster.hpp"
#include "mpc/lowlevel.hpp"
#include "mpc/primitives.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "obs/events.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "sparsify/edge_sparsifier.hpp"
#include "sparsify/good_nodes.hpp"
#include "sparsify/node_sparsifier.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dmpc::Json;
using dmpc::graph::EdgeId;
using dmpc::graph::Graph;
using dmpc::graph::NodeId;

struct RunConfig {
  bool quick = false;
  bool progress = false;
  std::uint32_t threads = 1;
};

// With --progress, every solver-driven sweep point streams throttled
// lifecycle lines to stderr (full runs take minutes; this shows which
// point is live). The bus is deliberately process-long: it never touches
// the registry or the report's model/registry blocks, so artifacts stay
// byte-identical with the flag on or off.
dmpc::obs::EventBus* progress_bus(const RunConfig& cfg) {
  if (!cfg.progress) return nullptr;
  static dmpc::obs::ProgressLineSink sink(&std::cerr);
  static dmpc::obs::EventBus bus;
  static const bool subscribed = bus.subscribe(&sink);
  (void)subscribed;
  return &bus;
}

/// Wraps one sweep point: snapshots the global registry before the body so
/// the point's "registry" block is exactly this point's model-section delta.
class PointScope {
 public:
  PointScope()
      : before_(dmpc::obs::MetricsRegistry::global().snapshot()),
        t0_(Clock::now()) {}

  /// Assemble the point row. `model` carries the experiment's own integer
  /// fields; the registry delta and wall stats are appended here.
  Json finish(Json axis_value, Json model) const {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
    auto& reg = dmpc::obs::MetricsRegistry::global();
    dmpc::obs::sample_host(reg);
    const auto delta =
        dmpc::obs::MetricsSnapshot::delta(reg.snapshot(), before_);
    // include_zero=false: which zero-valued metrics exist depends on which
    // experiments ran earlier in this process, and the registry block must
    // not (see obs/metrics_registry.hpp).
    return Json::object()
        .set("axis_value", std::move(axis_value))
        .set("model", std::move(model))
        .set("registry",
             dmpc::obs::to_json_section(delta, dmpc::obs::MetricSection::kModel,
                                        /*include_zero=*/false))
        .set("wall", dmpc::bench::wall_stats(wall_ms));
  }

 private:
  dmpc::obs::MetricsSnapshot before_;
  Clock::time_point t0_;
};

/// Deterministic workload seed per (experiment, argument) pair so rows are
/// reproducible but not identical across sweep points.
std::uint64_t workload_seed(std::uint64_t experiment, std::uint64_t arg) {
  return experiment * 1000003ULL + arg * 10007ULL + 1;
}

/// The standard sweep graph: G(n, 8n) — dense enough that the sparsification
/// path engages, sparse enough to sweep n comfortably.
Graph sweep_gnm(std::uint64_t n, std::uint64_t experiment) {
  return dmpc::graph::gnm(static_cast<NodeId>(n), static_cast<EdgeId>(8 * n),
                          workload_seed(experiment, n));
}

std::vector<std::uint64_t> sweep_n(const RunConfig& cfg) {
  if (cfg.quick) return {256, 512, 1024, 2048};
  return {256, 512, 1024, 2048, 4096, 8192};
}

dmpc::SolveOptions solver_options(const RunConfig& cfg) {
  dmpc::SolveOptions options;
  options.threads = cfg.threads;
  options.events = progress_bus(cfg);
  return options;
}

/// Solution plus the report JSON with the recovery ledger zeroed: the
/// identity fault recovery and the storage recovery ladder promise.
std::pair<std::vector<bool>, std::string> comparable(
    const dmpc::MisSolution& solution) {
  auto report = solution.report;
  report.recovery = dmpc::mpc::RecoveryStats{};
  return {solution.in_set, to_json(report).dump()};
}

std::uint64_t set_size(const std::vector<bool>& in_set) {
  return static_cast<std::uint64_t>(
      std::count(in_set.begin(), in_set.end(), true));
}

// ---------------------------------------------------------------- E1 / E2

/// Certificate of a certify=full re-solve of one sweep graph, as a
/// {"passed", "claims"} block (skipped claims count in "claims" only). The
/// re-solve runs before the point's PointScope opens, so the point's
/// registry and wall blocks see only the measured solve. A failed claim
/// throws verify::CertificationError, which fails the run.
template <typename Solve>
Json certificate_block(const RunConfig& cfg, Solve solve) {
  auto options = solver_options(cfg);
  options.certify = dmpc::verify::CertifyMode::kFull;
  const dmpc::Solver solver(options);
  solve(solver);
  std::uint64_t passed = 0;
  for (const auto& claim : solver.certificate().claims) {
    passed += claim.verdict == dmpc::verify::Verdict::kPass;
  }
  return Json::object()
      .set("passed", passed)
      .set("claims",
           static_cast<std::uint64_t>(solver.certificate().claims.size()));
}

Json e1_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = sweep_gnm(n, /*experiment=*/1);
    auto certificate = certificate_block(
        cfg, [&](const dmpc::Solver& s) { s.maximal_matching(g); });
    PointScope scope;
    auto options = solver_options(cfg);
    options.profile = true;
    const auto solution = dmpc::Solver(options).maximal_matching(g);
    const auto& r = solution.report;
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("iterations", r.iterations)
                     .set("mpc_rounds", r.metrics.rounds())
                     .set("peak_load", r.metrics.peak_machine_load())
                     .set("communication", r.metrics.total_communication())
                     .set("matching_size",
                          static_cast<std::uint64_t>(solution.matching.size())))
                    .set("profile", to_json(r.profile))
                    .set("certificate", std::move(certificate)));
  }
  return points;
}

Json e2_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = sweep_gnm(n, /*experiment=*/2);
    auto certificate =
        certificate_block(cfg, [&](const dmpc::Solver& s) { s.mis(g); });
    PointScope scope;
    auto options = solver_options(cfg);
    options.profile = true;
    const auto solution = dmpc::Solver(options).mis(g);
    const auto& r = solution.report;
    std::uint64_t size = 0;
    for (bool b : solution.in_set) size += b;
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("iterations", r.iterations)
                     .set("mpc_rounds", r.metrics.rounds())
                     .set("peak_load", r.metrics.peak_machine_load())
                     .set("communication", r.metrics.total_communication())
                     .set("mis_size", size))
                    .set("profile", to_json(r.profile))
                    .set("certificate", std::move(certificate)));
  }
  return points;
}

// --------------------------------------------------------------------- E3

Json e3_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"gnm", dmpc::graph::gnm(n, 8 * n, 31)});
  fams.push_back({"power_law", dmpc::graph::power_law(n, 6 * n, 2.5, 32)});
  fams.push_back(
      {"bipartite", dmpc::graph::random_bipartite(n / 2, n / 2, 6 * n, 33)});
  fams.push_back({"regular", dmpc::graph::random_regular(n, 16, 34)});
  Json points = Json::array();
  for (const auto& fam : fams) {
    PointScope scope;
    dmpc::sparsify::Params params;
    params.n = fam.g.num_nodes();
    params.inv_delta = 16;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    dmpc::mpc::Cluster cluster(cc);
    std::vector<bool> alive(fam.g.num_nodes(), true);
    const auto mm = dmpc::sparsify::select_matching_good_set(
        cluster, params, dmpc::graph::Residual(fam.g, alive));
    const auto mis =
        dmpc::sparsify::select_mis_good_set(cluster, params, fam.g, alive);
    points.push(scope.finish(
        Json(std::string(fam.name)),
        Json::object()
            .set("bound_half_delta_ppm", dmpc::bench::ppm(params.delta() / 2))
            .set("matching_b_mass_ppm",
                 dmpc::bench::ppm(double(mm.b_degree_mass) /
                                  double(2 * mm.alive_edges)))
            .set("mis_b_mass_ppm",
                 dmpc::bench::ppm(double(mis.b_degree_mass) /
                                  double(2 * mis.alive_edges)))));
  }
  return points;
}

// --------------------------------------------------------------------- E4

Json e4_points(const RunConfig& cfg) {
  Json points = Json::array();
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(n * n / 16), 41);
    PointScope scope;
    dmpc::sparsify::Params params;
    params.n = g.num_nodes();
    params.inv_delta = 8;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    Json model = Json::object();
    {
      dmpc::mpc::Cluster cluster(cc);
      const dmpc::graph::Residual residual(
          g, std::vector<bool>(g.num_nodes(), true));
      const auto good =
          dmpc::sparsify::select_matching_good_set(cluster, params, residual);
      const auto sp = dmpc::sparsify::sparsify_edges(cluster, params, g,
                                                     residual, good, {});
      double wi = 0, wii = 2;
      for (const auto& s : sp.stages) {
        wi = std::max(wi, s.invariant_degree_ratio);
        wii = std::min(wii, s.invariant_xv_ratio);
      }
      model.set("edges_stages", static_cast<std::uint64_t>(sp.stages.size()))
          .set("edges_max_degree", static_cast<std::uint64_t>(sp.max_degree))
          .set("edges_worst_deg_ratio_ppm", dmpc::bench::ppm(wi))
          .set("edges_worst_xv_ratio_ppm", dmpc::bench::ppm(wii));
    }
    {
      dmpc::mpc::Cluster cluster(cc);
      std::vector<bool> alive(g.num_nodes(), true);
      const auto good =
          dmpc::sparsify::select_mis_good_set(cluster, params, g, alive);
      const auto sp =
          dmpc::sparsify::sparsify_nodes(cluster, params, g, alive, good, {});
      double wi = 0, wii = 2;
      for (const auto& s : sp.stages) {
        wi = std::max(wi, s.invariant_degree_ratio);
        wii = std::min(wii, s.invariant_xv_ratio);
      }
      model.set("nodes_stages", static_cast<std::uint64_t>(sp.stages.size()))
          .set("nodes_max_degree", static_cast<std::uint64_t>(sp.max_q_degree))
          .set("nodes_worst_deg_ratio_ppm", dmpc::bench::ppm(wi))
          .set("nodes_worst_xv_ratio_ppm", dmpc::bench::ppm(wii));
    }
    model.set("degree_cap", params.degree_cap());
    points.push(scope.finish(Json(n), std::move(model)));
  }
  return points;
}

// --------------------------------------------------------------------- E5

Json e5_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"gnm", dmpc::graph::gnm(n, 8 * n, 51)});
  fams.push_back({"power_law", dmpc::graph::power_law(n, 6 * n, 2.5, 52)});
  fams.push_back({"regular", dmpc::graph::random_regular(n, 16, 53)});
  Json points = Json::array();
  for (const auto& fam : fams) {
    PointScope scope;
    Json model = Json::object();
    {
      const auto r = dmpc::matching::det_maximal_matching(fam.g, {});
      dmpc::RunningStats frac;
      for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
      model.set("matching_min_removed_ppm", dmpc::bench::ppm(frac.min()))
          .set("matching_mean_removed_ppm", dmpc::bench::ppm(frac.mean()));
    }
    {
      const auto r = dmpc::mis::det_mis(fam.g, {});
      dmpc::RunningStats frac;
      for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
      model.set("mis_min_removed_ppm", dmpc::bench::ppm(frac.min()))
          .set("mis_mean_removed_ppm", dmpc::bench::ppm(frac.mean()));
    }
    points.push(scope.finish(Json(std::string(fam.name)), std::move(model)));
  }
  return points;
}

// --------------------------------------------------------------------- E6

/// Rounds the low-degree pipeline spent gathering neighborhoods: the
/// O(log log n) term of Theorem 1.
std::uint64_t gather_rounds(const dmpc::mpc::Metrics& metrics) {
  const auto& by_label = metrics.rounds_by_label();
  const auto it = by_label.find("lowdeg/gather");
  return it == by_label.end() ? 0 : it->second;
}

Json e6_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 4096;
  const std::vector<std::uint32_t> deltas =
      cfg.quick ? std::vector<std::uint32_t>{2, 4, 8, 16}
                : std::vector<std::uint32_t>{2, 4, 8, 16, 32};
  Json points = Json::array();
  for (const std::uint32_t d : deltas) {
    const auto g =
        dmpc::graph::random_regular(static_cast<NodeId>(n), d, 600 + d);
    PointScope scope;
    const auto low = dmpc::lowdeg::lowdeg_mis(g, {});
    const auto gen = dmpc::mis::det_mis(g, {});
    points.push(scope.finish(
        Json(static_cast<std::uint64_t>(d)),
        Json::object()
            .set("lowdeg_rounds", low.metrics.rounds())
            .set("stages", low.stages)
            .set("phases_per_stage",
                 static_cast<std::uint64_t>(low.phases_per_stage))
            .set("general_rounds", gen.metrics.rounds())
            .set("gather_rounds", gather_rounds(low.metrics))
            .set("n", n)));
  }
  // The log log n term: an n-sweep at Delta = 4. String axis values keep
  // these points out of the rounds-vs-log(Delta) envelope fit.
  for (const std::uint64_t sweep_n : {512ull, 2048ull, 8192ull, 32768ull}) {
    const auto g = dmpc::graph::random_regular(static_cast<NodeId>(sweep_n),
                                               4, 700 + sweep_n);
    PointScope scope;
    const auto low = dmpc::lowdeg::lowdeg_mis(g, {});
    points.push(scope.finish(
        Json("4 (n=" + std::to_string(sweep_n) + ")"),
        Json::object()
            .set("lowdeg_rounds", low.metrics.rounds())
            .set("stages", low.stages)
            .set("phases_per_stage",
                 static_cast<std::uint64_t>(low.phases_per_stage))
            .set("gather_rounds", gather_rounds(low.metrics))
            .set("n", sweep_n)));
  }
  return points;
}

// --------------------------------------------------------------------- E7

Json e7_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  Json points = Json::array();
  for (const std::uint32_t d : {2u, 4u, 8u, 16u, 32u}) {
    const auto g =
        dmpc::graph::random_regular(static_cast<NodeId>(n), d, 800 + d);
    PointScope scope;
    const auto ours = dmpc::cclique::cc_mis(g);
    const auto base = dmpc::cclique::cc_mis_censor_hillel(g);
    points.push(scope.finish(Json(static_cast<std::uint64_t>(d)),
                             Json::object()
                                 .set("ours_rounds", ours.metrics.rounds())
                                 .set("baseline_rounds", base.metrics.rounds())));
  }
  return points;
}

// --------------------------------------------------------------------- E8

Json e8_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024, 2048}
                : std::vector<std::uint64_t>{512, 1024, 2048, 4096};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    for (const std::uint64_t eps_tenths : {3ull, 5ull, 7ull}) {
      const auto g = sweep_gnm(n, /*experiment=*/8);
      PointScope scope;
      auto options = solver_options(cfg);
      options.eps = double(eps_tenths) / 10.0;
      const auto cc =
          dmpc::mpc::provision({}, g.num_nodes(), g.num_edges(), options.eps,
                               options.space_headroom);
      const auto solution = dmpc::Solver(options).mis(g);
      const auto& m = solution.report.metrics;
      points.push(scope.finish(
          Json(n), Json::object()
                       .set("eps_tenths", eps_tenths)
                       .set("s_budget", cc.machine_space)
                       .set("machines", cc.num_machines)
                       .set("peak_load", m.peak_machine_load())
                       .set("communication", m.total_communication())));
    }
  }
  return points;
}

// --------------------------------------------------------------------- E9

Json e9_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(8 * n), 1000 + n);
    PointScope scope;
    const auto mm = dmpc::matching::det_maximal_matching(g, {});
    const auto mis = dmpc::mis::det_mis(g, {});
    std::uint64_t mm_trials = 0, mis_trials = 0;
    for (const auto& r : mm.reports) mm_trials += r.selection_trials;
    for (const auto& r : mis.reports) mis_trials += r.selection_trials;
    const auto dense = dmpc::graph::gnm(
        static_cast<NodeId>(n), static_cast<EdgeId>(n * n / 16), 1100 + n);
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = 1 << 16;
    cc.num_machines = 1 << 10;
    dmpc::mpc::Cluster cluster(cc);
    dmpc::sparsify::Params params;
    params.n = dense.num_nodes();
    params.inv_delta = 8;
    const dmpc::graph::Residual residual(
        dense, std::vector<bool>(dense.num_nodes(), true));
    const auto good =
        dmpc::sparsify::select_matching_good_set(cluster, params, residual);
    const auto sp = dmpc::sparsify::sparsify_edges(cluster, params, dense,
                                                   residual, good, {});
    std::uint64_t max_trials = 0;
    for (const auto& s : sp.stages) max_trials = std::max(max_trials, s.trials);
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("matching_selection_trials", mm_trials)
                     .set("matching_iterations", mm.iterations)
                     .set("mis_selection_trials", mis_trials)
                     .set("mis_iterations", mis.iterations)
                     .set("sparsify_stage_trials_max", max_trials)));
  }
  return points;
}

// -------------------------------------------------------------------- E10

Json e10_points(const RunConfig& cfg) {
  Json points = Json::array();
  for (const auto n : sweep_n(cfg)) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(8 * n), 1200 + n);
    PointScope scope;
    points.push(scope.finish(
        Json(n),
        Json::object()
            .set("det_matching_iterations",
                 dmpc::matching::det_maximal_matching(g, {}).iterations)
            .set("luby_matching_iterations",
                 dmpc::baselines::luby_matching(g, 1).iterations)
            .set("israeli_itai_iterations",
                 dmpc::baselines::israeli_itai(g, 1).iterations)
            .set("det_mis_iterations", dmpc::mis::det_mis(g, {}).iterations)
            .set("luby_mis_iterations",
                 dmpc::baselines::luby_mis(g, 1).iterations)
            .set("luby_mis_pairwise_iterations",
                 dmpc::baselines::luby_mis_pairwise(g, 1).iterations)));
  }
  return points;
}

// -------------------------------------------------------------------- E11

Json e11_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{512, 1024}
                : std::vector<std::uint64_t>{512, 1024, 2048};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(n * n / 16), 1300 + n);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    dmpc::mpc::Cluster cluster(dmpc::mpc::provision(
        {.enforce_space = false}, g.num_nodes(), g.num_edges(), config.eps,
        config.space_headroom));
    const auto params = dmpc::sparsify::params_for(config.eps, g.num_nodes());
    const dmpc::graph::Residual residual(g,
                                         std::vector<bool>(g.num_nodes(), true));
    const auto good =
        dmpc::sparsify::select_matching_good_set(cluster, params, residual);
    // The largest 2-hop neighborhood a B node gathers over `edges`: the
    // peak load of the gather on a cluster that does not enforce S.
    auto two_hop = [&](const std::vector<std::uint32_t>& edges) {
      dmpc::mpc::Cluster scratch(
          {.machine_space = cluster.space(), .enforce_space = false});
      (void)dmpc::matching::gather_two_hop(scratch, residual, good.b_nodes,
                                           edges);
      return scratch.metrics().peak_machine_load();
    };
    const auto without = two_hop(good.e0);
    const auto sp = dmpc::sparsify::sparsify_edges(cluster, params, g,
                                                   residual, good, {});
    const auto with = two_hop(sp.estar);
    points.push(scope.finish(
        Json(n),
        Json::object()
            .set("s_budget", cluster.space())
            .set("two_hop_without_estar", without)
            .set("two_hop_with_estar", with)
            .set("fits_without",
                 static_cast<std::uint64_t>(without <= cluster.space()))
            .set("fits_with",
                 static_cast<std::uint64_t>(with <= cluster.space()))));
  }
  return points;
}

// -------------------------------------------------------------------- E12

Json e12_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 1024 : 2048;
  const auto m = static_cast<EdgeId>(cfg.quick ? 8192 : 16384);
  Json points = Json::array();
  for (const std::uint64_t b : {1ull, 4ull, 16ull, 64ull}) {
    const auto g = dmpc::graph::gnm(static_cast<NodeId>(n), m, 1500 + b);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    config.selection_batch = b;
    const auto r = dmpc::matching::det_maximal_matching(g, config);
    dmpc::RunningStats frac;
    for (const auto& rep : r.reports) frac.add(rep.progress_fraction);
    points.push(scope.finish(
        Json(b), Json::object()
                     .set("iterations", r.iterations)
                     .set("rounds", r.metrics.rounds())
                     .set("mean_removed_ppm", dmpc::bench::ppm(frac.mean()))));
  }
  // Independence degree c of the sparsifier's hash family, on a dense
  // G(1024, 64k) at the default batch.
  for (const unsigned k : {2u, 4u, 8u}) {
    const auto g = dmpc::graph::gnm(1024, 65536, 1400 + k);
    PointScope scope;
    dmpc::matching::DetMatchingConfig config;
    config.sparsify.hash_k = k;
    const auto r = dmpc::matching::det_maximal_matching(g, config);
    points.push(scope.finish(
        Json("hash_k=" + std::to_string(k)),
        Json::object()
            .set("iterations", r.iterations)
            .set("rounds", r.metrics.rounds())
            .set("hash_k", static_cast<std::uint64_t>(k))));
  }
  return points;
}

// -------------------------------------------------------------------- E13

Json e13_points(const RunConfig& cfg) {
  Json points = Json::array();
  dmpc::Rng rng(77);
  const std::uint64_t psum_n = cfg.quick ? 20000 : 100000;
  for (const std::uint64_t sp : {64ull, 256ull}) {
    std::vector<dmpc::mpc::Word> v(psum_n);
    for (auto& x : v) x = rng.next_below(1u << 30);
    PointScope scope;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = sp;
    cc.num_machines = 1 << 16;
    dmpc::mpc::Cluster real(cc);
    dmpc::mpc::lowlevel::prefix_sum(real, v);
    dmpc::mpc::Cluster charged(cc);
    dmpc::mpc::prefix_sum_exclusive(charged, v);
    points.push(scope.finish(
        Json("prefix_sum/S=" + std::to_string(sp)),
        Json::object()
            .set("n", psum_n)
            .set("machine_space", sp)
            .set("real_rounds", real.metrics().rounds())
            .set("charged_rounds", charged.metrics().rounds())
            .set("peak_load", real.metrics().peak_machine_load())));
  }
  for (const auto& [n, sp] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{{3000, 256},
                                                            {12000, 512}}) {
    std::vector<dmpc::mpc::Word> v(n);
    for (auto& x : v) x = rng.next_below(1u << 30);
    PointScope scope;
    dmpc::mpc::ClusterConfig cc;
    cc.machine_space = sp;
    cc.num_machines = 1 << 16;
    dmpc::mpc::Cluster real(cc);
    auto a = v;
    dmpc::mpc::lowlevel::sort(real, a);
    dmpc::mpc::Cluster charged(cc);
    auto b = v;
    dmpc::mpc::dsort(charged, b, std::less<>{});
    points.push(scope.finish(
        Json("sample_sort/S=" + std::to_string(sp)),
        Json::object()
            .set("n", n)
            .set("machine_space", sp)
            .set("real_rounds", real.metrics().rounds())
            .set("charged_rounds", charged.metrics().rounds())
            .set("peak_load", real.metrics().peak_machine_load())));
  }
  return points;
}

// -------------------------------------------------------------------- E14

Json e14_points(const RunConfig& cfg) {
  const std::vector<std::uint64_t> ns =
      cfg.quick ? std::vector<std::uint64_t>{256, 512}
                : std::vector<std::uint64_t>{256, 512, 1024};
  Json points = Json::array();
  for (const std::uint64_t n : ns) {
    const auto g = dmpc::graph::random_bipartite(
        static_cast<NodeId>(n / 2), static_cast<NodeId>(n - n / 2),
        static_cast<EdgeId>(4 * n), 1600 + n);
    PointScope scope;
    const auto maximum = dmpc::graph::hopcroft_karp(g);
    const auto cover = dmpc::apps::vertex_cover_2approx(g);
    points.push(scope.finish(
        Json(n), Json::object()
                     .set("cover_size", cover.cover_size)
                     .set("matching_size", cover.matching_size)
                     .set("maximum_matching",
                          static_cast<std::uint64_t>(maximum.size))));
  }
  // (Delta+1)-coloring on 512-node regular graphs: colors used vs palette.
  for (const std::uint32_t d : {3u, 5u, 8u}) {
    const auto g = dmpc::graph::random_regular(512, d, 1700 + d);
    PointScope scope;
    const auto coloring = dmpc::apps::delta_plus_one_coloring(g);
    points.push(scope.finish(
        Json("coloring/Delta=" + std::to_string(g.max_degree())),
        Json::object()
            .set("colors_used",
                 static_cast<std::uint64_t>(coloring.colors_used))
            .set("palette", static_cast<std::uint64_t>(g.max_degree()) + 1)));
  }
  return points;
}

// -------------------------------------------------------------------- E15

Json e15_points(const RunConfig& cfg) {
  (void)cfg;
  struct Top {
    const char* name;
    Graph g;
  };
  std::vector<Top> tops;
  tops.push_back({"star_1023", dmpc::graph::star(1023)});
  tops.push_back({"grid_32x32", dmpc::graph::grid(32, 32)});
  tops.push_back({"path_1024", dmpc::graph::path(1024)});
  Json points = Json::array();
  for (const auto& top : tops) {
    PointScope scope;
    const auto det = dmpc::congest::congest_mis(top.g);
    const auto rand = dmpc::congest::luby_mis_congest(top.g, 1);
    points.push(scope.finish(
        Json(std::string(top.name)),
        Json::object()
            .set("bfs_depth", static_cast<std::uint64_t>(det.bfs_depth))
            .set("det_rounds", det.metrics.rounds())
            .set("randomized_rounds", rand.metrics.rounds())));
  }
  return points;
}

// -------------------------------------------------------------------- E16

Json e16_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 512 : 1024;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(8 * n), 1800 + n);
  PointScope scope;
  dmpc::obs::CollectorSink collector;
  dmpc::obs::TraceSession session(&collector);
  auto options = solver_options(cfg);
  options.trace = &session;
  const dmpc::Solver solver(options);
  const auto solution = solver.mis(g);
  session.finish();
  // The solve's registry delta is the aggregate the trace spans roll up to;
  // cross-check the headline counters against the typed report.
  const auto& snap = solver.metrics_snapshot();
  const auto* rounds = snap.find("mpc/rounds");
  const auto* comm = snap.find("mpc/communication");
  DMPC_CHECK(rounds != nullptr && comm != nullptr);
  DMPC_CHECK(static_cast<std::uint64_t>(rounds->value) ==
             solution.report.metrics.rounds());
  DMPC_CHECK(static_cast<std::uint64_t>(comm->value) ==
             solution.report.metrics.total_communication());
  Json points = Json::array();
  points.push(scope.finish(
      Json(n), Json::object()
                   .set("trace_events", session.events_emitted())
                   .set("mpc_rounds", solution.report.metrics.rounds())
                   .set("communication",
                        solution.report.metrics.total_communication())
                   .set("registry_matches_report", std::uint64_t{1})));
  return points;
}

// -------------------------------------------------------------------- E17

Json e17_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 256 : 512;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(16 * n), /*seed=*/23);
  auto run = [&](std::uint32_t threads) {
    dmpc::SolveOptions options;
    options.threads = threads;
    const dmpc::Solver solver(options);
    const auto solution = solver.mis(g);
    return std::make_pair(solution, to_json(solution.report).dump());
  };
  const auto reference = run(1);
  // The threaded CSR build must reproduce the serial one (Graph::from_edges
  // on a parallel executor has no tier-1 test of its own). Checked outside
  // every PointScope: the points' registry blocks stay those of the solves.
  {
    const auto proto = dmpc::graph::gnm(
        static_cast<NodeId>(cfg.quick ? 20000 : 100000),
        static_cast<EdgeId>(cfg.quick ? 160000 : 800000), /*seed=*/17);
    const auto range = proto.edges();
    const std::vector<dmpc::graph::Edge> edges(range.begin(), range.end());
    const auto serial = Graph::from_edges(proto.num_nodes(), edges,
                                          dmpc::exec::Executor::serial());
    const auto parallel = Graph::from_edges(
        proto.num_nodes(), edges, dmpc::exec::Executor::with_threads(0));
    DMPC_CHECK_MSG(serial.max_degree() == parallel.max_degree() &&
                       serial.edges() == parallel.edges(),
                   "threaded Graph::from_edges differs from the serial build");
  }
  Json points = Json::array();
  for (const std::uint32_t threads : {1u, 2u, 0u}) {
    PointScope scope;
    const auto [solution, json] = run(threads);
    const bool identical =
        solution.in_set == reference.first.in_set && json == reference.second;
    DMPC_CHECK_MSG(identical, "threads=" << threads
                                         << " output differs from serial");
    points.push(scope.finish(
        Json(static_cast<std::uint64_t>(threads)),
        Json::object()
            .set("mpc_rounds", solution.report.metrics.rounds())
            .set("peak_load", solution.report.metrics.peak_machine_load())
            .set("communication",
                 solution.report.metrics.total_communication())
            .set("identical_to_serial", static_cast<std::uint64_t>(identical))));
  }
  return points;
}

// -------------------------------------------------------------------- E18

Json e18_points(const RunConfig& cfg) {
  const std::uint64_t n = cfg.quick ? 256 : 512;
  const auto g = dmpc::graph::gnm(static_cast<NodeId>(n),
                                  static_cast<EdgeId>(16 * n), /*seed=*/23);
  // Every solve is traced (JSONL, no wall time): the fault layer promises the
  // same solution, report modulo recovery, and trace as the fault-free run.
  auto run = [&](const dmpc::mpc::FaultPlan& faults,
                 dmpc::mpc::CheckpointMode checkpoint =
                     dmpc::mpc::CheckpointMode::kRound) {
    std::ostringstream trace;
    dmpc::obs::JsonlTraceSink sink(&trace, /*include_wall_time=*/false);
    dmpc::obs::TraceSession session(&sink);
    dmpc::SolveOptions options;
    options.trace = &session;
    options.faults = faults;
    options.recovery.checkpoint = checkpoint;
    auto solution = dmpc::Solver(options).mis(g);
    session.finish();
    return std::make_pair(std::move(solution), trace.str());
  };
  const auto baseline = run(dmpc::mpc::FaultPlan{});
  const auto reference = comparable(baseline.first);
  const std::uint64_t total_rounds = baseline.first.report.metrics.rounds();
  auto spread = [&](dmpc::mpc::FaultKind kind, std::uint64_t count,
                    std::uint64_t machines) {
    dmpc::mpc::FaultPlan plan;
    for (std::uint64_t i = 0; i < count; ++i) {
      dmpc::mpc::FaultEvent event;
      event.kind = kind;
      event.round = 1 + (i * total_rounds) / (count + 1);
      event.machine = i % machines;
      event.message = 0;
      plan.add(event);
    }
    return plan;
  };
  auto expect_identical =
      [&](const char* name,
          const std::pair<dmpc::MisSolution, std::string>& result) {
        const bool identical = comparable(result.first) == reference &&
                               result.second == baseline.second;
        DMPC_CHECK_MSG(identical,
                       "scenario '" << name << "' differs from fault-free run");
        return identical;
      };
  const std::uint64_t light = cfg.quick ? 2 : 4;
  const std::uint64_t heavy = cfg.quick ? 8 : 32;
  // Heavy plans across 16 machines and phase-granular checkpointing: their
  // identity is asserted here, outside every PointScope, and not tabled.
  using dmpc::mpc::FaultKind;
  expect_identical("crash_heavy", run(spread(FaultKind::kCrash, heavy, 16)));
  expect_identical("drop_heavy", run(spread(FaultKind::kDrop, heavy, 16)));
  expect_identical("crash_phase_ckpt",
                   run(spread(FaultKind::kCrash, light, 16),
                       dmpc::mpc::CheckpointMode::kPhase));
  struct Scenario {
    const char* name;
    dmpc::mpc::FaultPlan faults;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"crash_light", spread(FaultKind::kCrash, light, 1)});
  scenarios.push_back({"drop_light", spread(FaultKind::kDrop, light, 1)});
  {
    auto mixed = spread(FaultKind::kCrash, light, 16);
    for (const auto kind :
         {FaultKind::kDrop, FaultKind::kStraggler, FaultKind::kDuplicate}) {
      const auto part = spread(kind, light, 16);
      for (const auto& e : part.events()) mixed.add(e);
    }
    scenarios.push_back({"mixed", std::move(mixed)});
  }
  Json points = Json::array();
  for (const auto& scenario : scenarios) {
    PointScope scope;
    const auto result = run(scenario.faults);
    const bool identical = expect_identical(scenario.name, result);
    const auto& rec = result.first.report.recovery;
    points.push(scope.finish(
        Json(std::string(scenario.name)),
        Json::object()
            .set("planned_events",
                 static_cast<std::uint64_t>(scenario.faults.events().size()))
            .set("faults_injected", rec.faults_injected)
            .set("retries", rec.retries)
            .set("replayed_rounds", rec.replayed_rounds)
            .set("checkpoints", rec.checkpoints)
            .set("identical_to_fault_free",
                 static_cast<std::uint64_t>(identical))));
  }
  return points;
}

// -------------------------------------------------------------- E19 / E20

namespace fs = std::filesystem;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A fresh directory under the system temp dir, removed on scope exit (also
/// when an identity check throws).
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// Stream-write the circulant graph C(n; 1..k): node v joined to v+d (mod n)
/// for d = 1..k. Exactly m = n*k distinct edges (for 2k < n), no self-loops,
/// uniform degree 2k — and O(1) writer memory, which is the point: the E19
/// sweep must never hold a graph-sized structure on the heap.
void write_circulant(const std::string& path, std::uint64_t n,
                     std::uint64_t k) {
  std::ofstream out(path);
  out << n << ' ' << n * k << '\n';
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t d = 1; d <= k; ++d) {
      out << v << ' ' << (v + d) % n << '\n';
    }
  }
}

/// Exact heap bytes Graph::from_edges would pin for (n, m): offsets
/// (n+1)*u64, adjacency 2m*u32, incident 2m*u64, edges m*8B.
std::uint64_t csr_bytes(std::uint64_t n, std::uint64_t m) {
  return (n + 1) * 8 + 2 * m * (4 + 8) + m * 8;
}

/// The streaming shard builder's dirty-page budget for every E19 build.
constexpr std::uint64_t kE19RssBudgetBytes = std::uint64_t{16} << 20;

/// E19's shard-build sweep. The streaming build promises peak host memory
/// of O(n) words plus a fixed dirty-page budget, never O(m): each point
/// stream-writes a circulant edge list (no in-memory graph), records process
/// peak RSS after the build and reports it next to the in-memory CSR
/// footprint; scaling_check gates the ratio. ru_maxrss only ever grows
/// during a process, so main() runs this before every other experiment; the
/// result is cached for e19_points.
const Json& e19_sweep(const RunConfig& cfg) {
  static const Json sweep = [&] {
    const ScratchDir dir("dmpc_bench_e19_sweep");
    dmpc::mpc::ShardBuildOptions build;
    build.rss_budget_bytes = kE19RssBudgetBytes;
    // Degree 2k = 16 throughout, n doubling; the full sweep's largest point
    // has a ~420 MB in-memory CSR while the builder must stay flat.
    std::vector<std::uint64_t> sizes = {100000, 200000, 400000};
    if (!cfg.quick) sizes.push_back(800000);
    Json points = Json::array();
    for (const std::uint64_t n : sizes) {
      const std::string edges = dir.file("sweep.txt");
      const std::string shards = dir.file("shards");
      write_circulant(edges, n, /*k=*/8);
      const auto t0 = Clock::now();
      const auto stats = dmpc::mpc::shard_build(edges, shards, build);
      const double build_ms = ms_since(t0);
      const std::uint64_t peak_rss = dmpc::obs::peak_rss_bytes();
      // Keep the disk footprint to one point's input and shards.
      fs::remove(edges);
      fs::remove_all(shards);
      points.push(
          Json::object()
              .set("axis_value", stats.m)
              .set("model", Json::object()
                                .set("n", stats.n)
                                .set("m", stats.m)
                                .set("csr_bytes", csr_bytes(stats.n, stats.m))
                                .set("shard_bytes", stats.total_bytes)
                                .set("shards", stats.shards))
              .set("rss", Json::object()
                              .set("build_peak_rss_bytes", peak_rss)
                              .set("rss_budget_bytes", build.rss_budget_bytes))
              .set("wall", dmpc::bench::wall_stats(build_ms)));
    }
    return points;
  }();
  return sweep;
}

/// E19: the identity point (a small instance solved through the mmap and
/// in-memory backends must be byte-identical) followed by the sweep points.
Json e19_points(const RunConfig& cfg) {
  const Json& sweep = e19_sweep(cfg);
  const ScratchDir dir("dmpc_bench_e19");
  dmpc::mpc::ShardBuildOptions build;
  build.rss_budget_bytes = kE19RssBudgetBytes;
  const std::string id_edges = dir.file("identity.txt");
  write_circulant(id_edges, /*n=*/2000, /*k=*/8);
  const auto id_stats =
      dmpc::mpc::shard_build(id_edges, dir.file("identity_shards"), build);
  const auto storage =
      dmpc::mpc::MmapShardStorage::open(dir.file("identity_shards"));
  const dmpc::Solver solver;
  const auto t0 = Clock::now();
  const auto from_mmap = solver.mis(*storage);
  const double solve_ms = ms_since(t0);
  const auto from_memory =
      solver.mis(dmpc::graph::read_edge_list_file(id_edges));
  const bool identical = from_mmap.in_set == from_memory.in_set &&
                         to_json(from_mmap.report).dump() ==
                             to_json(from_memory.report).dump();
  DMPC_CHECK_MSG(identical, "mmap-backed solve differs from in-memory solve");

  Json points = Json::array();
  points.push(
      Json::object()
          .set("axis_value", id_stats.m)
          .set("model",
               Json::object()
                   .set("n", id_stats.n)
                   .set("m", id_stats.m)
                   .set("csr_bytes", csr_bytes(id_stats.n, id_stats.m))
                   .set("shard_bytes", id_stats.total_bytes)
                   .set("shards", id_stats.shards)
                   .set("mis_size", set_size(from_mmap.in_set))
                   .set("mpc_rounds", from_mmap.report.metrics.rounds())
                   .set("identical", identical ? 1 : 0))
          .set("wall", dmpc::bench::wall_stats(solve_ms)));
  for (const Json& point : sweep.items()) points.push(point);
  return points;
}

/// E20: the storage recovery ladder (docs/STORAGE.md, "Integrity & degraded
/// mode") end to end on one shard directory — a clean verified open,
/// transient open-time failures absorbed by retries, a checksum flip that
/// heals on retry, persistent corruption forcing a quarantine re-read, and an
/// exhausted mmap budget degrading to the in-memory backend. Every scenario
/// must reproduce the fault-free solve; the deterministic recovery ledger is
/// what the baseline gates.
Json e20_points(const RunConfig& cfg) {
  (void)cfg;  // quick and full run the same instance
  using dmpc::mpc::FaultPlan;
  using dmpc::mpc::IoFaultKind;
  const ScratchDir dir("dmpc_bench_e20");
  const Graph g = dmpc::graph::gnm(4000, 32000, 20);
  const std::string edge_path = dir.file("g.txt");
  dmpc::graph::write_edge_list_file(g, edge_path);
  dmpc::mpc::ShardBuildOptions build;
  build.shard_words = 8192;
  const std::string shard_dir = dir.file("shards");
  const auto build_stats = dmpc::mpc::shard_build(edge_path, shard_dir, build);

  FaultPlan transient;
  transient.add({IoFaultKind::kEio, /*shard=*/0, dmpc::mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/2});
  transient.add({IoFaultKind::kShortRead, /*shard=*/1, dmpc::mpc::kAccessOpen,
                 /*delay=*/1, /*attempts=*/1});
  transient.add({IoFaultKind::kSlow, /*shard=*/0, dmpc::mpc::kAccessVerify,
                 /*delay=*/3, /*attempts=*/1});
  FaultPlan heal;
  heal.add({IoFaultKind::kCorrupt, /*shard=*/0, dmpc::mpc::kAccessVerify,
            /*delay=*/1, /*attempts=*/1});
  FaultPlan quarantine;
  quarantine.add({IoFaultKind::kCorrupt, /*shard=*/1, dmpc::mpc::kAccessVerify,
                  /*delay=*/1, /*attempts=*/4});
  FaultPlan exhaust_mmap;
  exhaust_mmap.add({IoFaultKind::kMapFail, /*shard=*/0, dmpc::mpc::kAccessOpen,
                    /*delay=*/1,
                    /*attempts=*/dmpc::mpc::RecoveryOptions::kMaxRetries + 1});
  struct Scenario {
    const char* name;
    FaultPlan plan;
    bool degrade;  ///< Open through the fallback path, not mmap.
  };
  const std::vector<Scenario> scenarios = {{"clean", FaultPlan{}, false},
                                           {"transient", transient, false},
                                           {"heal", heal, false},
                                           {"quarantine", quarantine, false},
                                           {"degraded", exhaust_mmap, true}};

  const dmpc::Solver solver;
  const auto reference = comparable(solver.mis(g));
  Json points = Json::array();
  for (const Scenario& scenario : scenarios) {
    const auto t0 = Clock::now();
    std::unique_ptr<dmpc::mpc::Storage> storage;
    if (scenario.degrade) {
      dmpc::mpc::StorageOptions options;
      options.backend = dmpc::mpc::StorageBackend::kMmap;
      options.shard_dir = shard_dir;
      options.verify = dmpc::mpc::VerifyMode::kOpen;
      options.fallback = dmpc::mpc::FallbackMode::kMemory;
      storage = dmpc::mpc::open_storage(options, edge_path, {}, scenario.plan);
    } else {
      storage = dmpc::mpc::MmapShardStorage::open(
          shard_dir, {}, dmpc::mpc::VerifyMode::kOpen, scenario.plan);
    }
    const auto solution = solver.mis(*storage);
    const double wall_ms = ms_since(t0);
    const bool identical = comparable(solution) == reference;
    DMPC_CHECK_MSG(identical, "scenario '" << scenario.name
                                           << "' differs from fault-free run");
    const auto& ledger = storage->io_recovery();
    points.push(
        Json::object()
            .set("axis_value", std::string(scenario.name))
            .set("model",
                 Json::object()
                     .set("n", build_stats.n)
                     .set("m", build_stats.m)
                     .set("shards", build_stats.shards)
                     .set("io_faults_injected", ledger.io_faults_injected)
                     .set("retries", ledger.retries)
                     .set("backoff_units", ledger.backoff_units)
                     .set("checksum_failures", ledger.checksum_failures)
                     .set("quarantined_shards", ledger.quarantined_shards)
                     .set("degraded", ledger.degraded)
                     .set("shards_verified", ledger.shards_verified)
                     .set("mis_size", set_size(solution.in_set))
                     .set("mpc_rounds", solution.report.metrics.rounds())
                     .set("identical", identical ? 1 : 0))
            .set("wall", dmpc::bench::wall_stats(wall_ms)));
  }
  return points;
}

// ------------------------------------------------------------- experiment table

struct Experiment {
  const char* id;     // "e1"
  const char* axis;   // sweep variable name
  const char* title;  // one line, mirrors the bench_eN file comments
  std::function<Json(const RunConfig&)> points;
};

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = {
      {"e1", "n", "Theorem 7: deterministic maximal matching rounds vs n",
       e1_points},
      {"e2", "n", "Theorem 14: deterministic MIS rounds vs n", e2_points},
      {"e3", "family", "Lemma 3 / Cor. 8 & 16: good-class degree mass",
       e3_points},
      {"e4", "n", "Sparsification invariants (Lemmas 10/11 & 17/18)",
       e4_points},
      {"e5", "family", "Lemmas 13 & 21: per-iteration edge removal fraction",
       e5_points},
      {"e6", "delta", "Theorem 1 (s5): rounds = O(log Delta + log log n)",
       e6_points},
      {"e7", "delta", "Corollary 2: CONGESTED CLIQUE MIS vs baseline",
       e7_points},
      {"e8", "n", "Space: peak machine load vs S = O(n^eps)", e8_points},
      {"e9", "n", "Derandomization cost: seed trials per step", e9_points},
      {"e10", "n", "Deterministic vs randomized baselines (iterations)",
       e10_points},
      {"e11", "n", "Ablation: 2-hop footprint with vs without sparsification",
       e11_points},
      {"e12", "selection_batch",
       "Ablations: selection batch size; hash independence c", e12_points},
      {"e13", "case", "Lemma-4 realizability: real vs charged primitives",
       e13_points},
      {"e14", "n",
       "Applications: Koenig-exact vertex cover; (Delta+1)-coloring",
       e14_points},
      {"e15", "topology", "s6 extension: derandomized Luby in CONGEST",
       e15_points},
      {"e16", "n", "Observability: traced MIS run vs registry snapshot",
       e16_points},
      {"e17", "threads", "Host-parallel engine: identity across threads",
       e17_points},
      {"e18", "scenario", "Fault injection: recovery cost, identical output",
       e18_points},
      {"e19", "m", "Out-of-core shard storage: build RSS bound + identity",
       e19_points},
      {"e20", "scenario", "Storage-fault recovery: ladder overhead + identity",
       e20_points},
  };
  return table;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  RunConfig cfg;
  cfg.quick = args.has("quick");
  cfg.progress = args.has("progress");
  std::int64_t threads = 1;
  try {
    threads = args.require_int("threads", 1);
  } catch (const dmpc::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (threads < 0 || threads > dmpc::Solver::kMaxThreads) {
    std::fprintf(stderr, "error: --threads=%lld is outside [0, %u]\n",
                 static_cast<long long>(threads), dmpc::Solver::kMaxThreads);
    return 2;
  }
  cfg.threads = static_cast<std::uint32_t>(threads);
  const std::string out_dir = args.get("out", ".");
  const std::string commit = args.get("commit", "");
  const std::string experiments_csv = args.get("experiments", "");
  if (experiments_csv.empty()) {
    std::fprintf(stderr,
                 "usage: bench_runner --experiments=e1,e2,...|all --out=<dir> "
                 "[--quick] [--threads=N] [--commit=<sha>] [--progress]\n");
    return 2;
  }

  std::vector<const Experiment*> selected;
  if (experiments_csv == "all") {
    for (const auto& e : experiments()) selected.push_back(&e);
  } else {
    for (const auto& id : split_csv(experiments_csv)) {
      const Experiment* found = nullptr;
      std::string known;
      for (const auto& e : experiments()) {
        if (id == e.id) found = &e;
        if (!known.empty()) known += ',';
        known += e.id;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown experiment '%s' (known: %s)\n",
                     id.c_str(), known.c_str());
        return 2;
      }
      selected.push_back(found);
    }
  }
  try {
    // ru_maxrss only ever grows during a process, so E19's shard-build RSS
    // samples measure the builder only when its sweep runs before every
    // other experiment. Its identity solve stays in table order: run first,
    // it would register the MIS metric labels ahead of E1's and reorder
    // later experiments' registry blocks.
    for (const Experiment* exp : selected) {
      if (std::string(exp->id) == "e19") e19_sweep(cfg);
    }
    for (const Experiment* exp : selected) {
      std::fprintf(stderr, "running %s: %s\n", exp->id, exp->title);
      auto doc = dmpc::bench::bench_envelope(exp->id, exp->title, cfg.quick,
                                             commit)
                     .set("axis", std::string(exp->axis))
                     .set("threads", static_cast<std::uint64_t>(cfg.threads))
                     .set("points", exp->points(cfg));
      const std::string path = out_dir + "/BENCH_" + upper(exp->id) + ".json";
      dmpc::bench::write_json_file(doc, path);
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    // A failed identity assertion or certificate claim fails the run.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
