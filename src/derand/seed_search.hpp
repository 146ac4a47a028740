// Guaranteed deterministic seed search.
//
// The proofs establish E_h[q(h)] >= Q over the hash family H. By the
// probabilistic method some h* in H has q(h*) >= Q; moreover, whenever q is
// bounded above by q_max, reverse Markov gives
//
//     Pr_h[q(h) >= t] >= (Q - t) / (q_max - t)   for any t < Q,
//
// i.e. a *constant fraction* of seeds meets a constant-factor-weaker
// threshold. The search enumerates seeds in the family's fixed deterministic
// order, evaluating K candidates per batch — one batch is O(1) MPC rounds,
// since each machine evaluates its local term for all K candidates and a
// single fan-in-S tree aggregates the K sums (K <= S) — and commits to the
// first candidate reaching the threshold. The model pays for all K
// candidates of a batch; the host evaluates them in order and stops at the
// committed one. Termination before the family is exhausted is
// unconditional when threshold <= Q.
//
// This engine is the production path; the textbook prefix-fixing engine
// (cond_expect.hpp) is the faithful §2.4 implementation used where the
// conditional expectations are exactly computable.
#pragma once

#include <cstdint>
#include <string>

#include "derand/engine_options.hpp"
#include "derand/objective.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::hash {
class KWiseFamily;
}

namespace dmpc::derand {

/// Threshold-search knobs on top of the shared engine surface
/// (label / candidates_per_batch / max_trials live in EngineOptions).
struct SearchOptions : EngineOptions {
  SearchOptions() { label = "seed_search"; }

  /// Commit to the first seed with objective >= threshold.
  double threshold = 0.0;
  /// Trial t evaluates seed (base + t * stride) mod seed_count. Plain
  /// counting order (base 0, stride 1) walks polynomials in increasing
  /// coefficient order, so consecutive derandomization steps that each
  /// commit "the first good seed" pick highly correlated functions (e.g.
  /// h(x) = a*x for small a, which all favour small inputs). Callers that
  /// run many steps (the sparsifier stages) pass a step-dependent base and
  /// a large odd stride to decorrelate; with stride coprime to the family
  /// size the enumeration is still a bijection, preserving the exhaustive
  /// coverage guarantee.
  std::uint64_t seed_base = 0;
  std::uint64_t seed_stride = 1;
};

struct SearchResult {
  std::uint64_t seed = 0;
  double value = 0.0;
  std::uint64_t trials = 0;   ///< Seeds evaluated (including the committed one).
  std::uint64_t batches = 0;  ///< O(1)-round batches used.
};

/// The stride actually used for a requested (stride, seed_count): the
/// smallest s >= stride mod seed_count (wrapping, never 0) with
/// gcd(s, seed_count) = 1. Coprimality makes t -> (base + t*s) mod seed_count
/// a bijection on [0, seed_count), so a strided walk visits every residue
/// exactly once before repeating — the exhaustive-coverage property the
/// termination guarantee rests on. (A non-coprime stride s visits only
/// seed_count / gcd(s, seed_count) residues; an earlier version reduced a
/// stride that was a multiple of seed_count to 1 but silently kept other
/// non-coprime strides, losing coverage.) Exposed for tests.
std::uint64_t effective_stride(std::uint64_t stride, std::uint64_t seed_count);

/// Find the first seed (in enumeration order) meeting the threshold.
/// Every batch is charged to the model as K candidates, but the host
/// evaluates it lowest-trial-first on the cluster's executor and stops at
/// the first qualifying candidate (Executor::find_first), so host cost
/// follows the committed trial, not K. The committed seed, trials, value
/// and batches are identical for every thread count.
SearchResult find_seed(mpc::Cluster& cluster, const Objective& objective,
                       std::uint64_t seed_count, const SearchOptions& options);

/// Evaluate the first `budget` seeds and return the best — used when a
/// threshold is not known a priori (e.g. §5 phase compression picks the
/// sequence minimizing the residual edge count).
SearchResult find_best_seed(mpc::Cluster& cluster, const Objective& objective,
                            std::uint64_t seed_count, std::uint64_t budget,
                            const std::string& label = "seed_search");

/// How a pipeline commits its per-iteration selection seed.
enum class SelectionMode {
  /// Batched best-of threshold search over the family (production path).
  kThresholdSearch,
  /// The textbook §2.4 method of conditional expectations with the
  /// exact-enumeration oracle. Exponential in the seed length, so only
  /// valid for small instances (the family size is checked); it shows the
  /// paper's §2.4 machinery end to end in the real pipelines.
  kConditionalExpectation,
};

/// Seeds per threshold level before the selection threshold is halved: the
/// finite-n escape hatch of the Lemma 13 / Lemma 21 selections. Any seed
/// with a positive value eventually qualifies, so the search terminates.
inline constexpr std::uint64_t kTrialsPerThreshold = 256;

struct SelectionOptions {
  /// Round-charge label and span name ("mis/selection"); the §2.4 path
  /// charges under label + "_ce".
  std::string label;
  SelectionMode mode = SelectionMode::kThresholdSearch;
  /// Candidates per O(1)-round batch.
  std::uint64_t batch = 16;
  /// The lemma's threshold on the objective.
  double threshold = 0.0;
  /// Decorrelates the committed seeds of successive iterations: trial k
  /// evaluates a stride-scrambled walk over the family offset by `salt`.
  std::uint64_t salt = 0;
};

/// Commit the selection seed of one pipeline iteration over the pairwise
/// `family` the objective is bound to. The threshold search evaluates
/// batches of candidates (host-parallel, then a serial lowest-trial-first
/// scan, so the committed seed is identical for every thread count) and
/// commits the best seed so far once its value is positive and meets the
/// threshold, halving the threshold every kTrialsPerThreshold trials.
SearchResult select_seed(mpc::Cluster& cluster, const RangeObjective& objective,
                         const hash::KWiseFamily& family,
                         const SelectionOptions& options);

}  // namespace dmpc::derand
