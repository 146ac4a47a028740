// The §5 solvers: MIS and maximal matching in O(log Delta + log log n) MPC
// rounds for Delta <= n^{delta}.
//
// Pipeline (Lemma 22): preprocessing = distance-2 coloring (O(log* n)
// rounds) + r-hop ball gathering (O(log log n) rounds); then stages of
// l = Theta(delta log_Delta n) compressed Luby phases, each stage O(1)
// rounds, O(log Delta) stages total. Matching reduces to MIS on the line
// graph (§5, "Extension to maximal matching").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "lowdeg/coloring.hpp"
#include "lowdeg/phase_compression.hpp"
#include "mpc/cluster.hpp"
#include "mpc/metrics.hpp"

namespace dmpc::lowdeg {

/// Lemma 22 simulation knobs: candidate Luby-phase sequences evaluated per
/// stage, seeds enumerable per phase, the upper clamp on phases per stage
/// l (simulation cost), and the stage cap (a guarantee violation beyond).
inline constexpr std::uint64_t kSequenceBudget = 64;
inline constexpr std::uint64_t kPerPhaseCap = 1024;
inline constexpr std::uint32_t kMaxPhases = 8;
inline constexpr std::uint64_t kMaxStages = 100000;

struct LowDegConfig {
  double eps = 0.5;              ///< S = space_headroom * n^eps.
  double space_headroom = 8.0;
  /// Threads, faults, observers and geometry overrides of the cluster the
  /// cluster-creating overloads build (zero geometry fields are provisioned
  /// from eps, space_headroom and the 4 Delta^3 floor).
  mpc::ClusterConfig cluster;
};

struct LowDegMisResult {
  std::vector<bool> in_set;
  std::uint64_t stages = 0;
  std::uint32_t phases_per_stage = 0;  ///< l.
  std::uint32_t colors = 0;            ///< Distance-2 palette size.
  std::vector<StageOutcome> outcomes;
  mpc::Metrics metrics;
  mpc::RecoveryStats recovery;  ///< All-zero for a fault-free run.
  std::uint64_t machine_space = 0;  ///< S of the cluster the run used.
};

/// Phases per stage: the largest l with 4 * Delta^{2l+1} <= S (the radius-2l
/// ball with its incident edges must fit on one machine), at least 1,
/// clamped to kMaxPhases.
std::uint32_t phases_for(std::uint64_t space, std::uint32_t max_degree);

/// Builds the cluster from config.cluster, provisioned for g with S >=
/// 4 * Delta^3: the pipeline needs one radius-2 ball (Delta^2 nodes x Delta
/// incident edges) per machine even at l = 1; for Delta <= n^{eps/3} (the
/// regime §5 targets) that floor is within O(n^eps).
LowDegMisResult lowdeg_mis(const graph::Graph& g, const LowDegConfig& config);
/// As above, against a caller-provided cluster (metrics accumulate there).
LowDegMisResult lowdeg_mis(mpc::Cluster& cluster, const graph::Graph& g);

struct LowDegMatchingResult {
  std::vector<graph::EdgeId> matching;
  LowDegMisResult line_mis;  ///< The underlying line-graph MIS run.
};

/// Maximal matching = MIS on the line graph (L(G) ids are EdgeIds of g),
/// on a cluster provisioned for the line graph.
LowDegMatchingResult lowdeg_matching(const graph::Graph& g,
                                     const LowDegConfig& config);

}  // namespace dmpc::lowdeg
