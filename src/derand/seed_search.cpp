#include "derand/seed_search.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "derand/cond_expect.hpp"
#include "hash/kwise.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::derand {

namespace {

/// Model-section registry counters for seed searches. Charged once per
/// completed search from the orchestrating thread (never inside a
/// recoverable body and never from executor workers), so the totals are
/// deterministic across thread counts and fault plans — golden by the same
/// argument as the trace args they mirror. The trials histogram has fixed
/// power-of-four bounds so its serialization is value-independent.
struct SearchMetrics {
  obs::Counter* searches;
  obs::Counter* candidates;
  obs::Counter* batches;
  obs::Histogram* trials;
};

SearchMetrics& search_metrics() {
  static SearchMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    return SearchMetrics{
        &registry.counter("derand/searches"),
        &registry.counter("derand/candidate_seeds"),
        &registry.counter("derand/batches"),
        &registry.histogram("derand/trials_per_search",
                            {1, 4, 16, 64, 256, 1024, 4096, 16384}),
    };
  }();
  return metrics;
}

void record_search(const SearchResult& result) {
  SearchMetrics& metrics = search_metrics();
  metrics.searches->add(1);
  metrics.candidates->add(result.trials);
  metrics.batches->add(result.batches);
  metrics.trials->observe(result.trials);
}
/// Charge one evaluation batch of `k` candidates over `terms` local terms:
/// local evaluation is free; aggregating k partial sums up a fan-in-S tree
/// and broadcasting the verdict back is 2 * tree_depth rounds.
void charge_batch(mpc::Cluster& cluster, std::uint64_t terms, std::uint64_t k,
                  const std::string& label) {
  const std::uint64_t depth =
      cluster.tree_depth(std::max<std::uint64_t>(terms, 2));
  cluster.charge(label, 2 * depth, k * cluster.machines());
}
}  // namespace

std::uint64_t effective_stride(std::uint64_t stride, std::uint64_t seed_count) {
  DMPC_CHECK(seed_count >= 1);
  if (seed_count == 1) return 1;
  std::uint64_t s = stride % seed_count;
  if (s == 0) s = 1;
  // Walk forward (wrapping, skipping 0) to the nearest stride coprime to the
  // family size. Strides that are already coprime — every caller passing a
  // large odd stride against a power-of-two family — are returned unchanged.
  while (std::gcd(s, seed_count) != 1) {
    ++s;
    if (s == seed_count) s = 1;
  }
  return s;
}

SearchResult find_seed(mpc::Cluster& cluster, const Objective& objective,
                       std::uint64_t seed_count, const SearchOptions& options) {
  DMPC_CHECK(seed_count >= 1);
  obs::HostScope host_scope("derand/seed_search", cluster.trace());
  obs::Span span(cluster.trace(), options.label);
  const std::uint64_t k = std::max<std::uint64_t>(
      1, std::min(options.candidates_per_batch, cluster.space()));
  SearchResult result;
  std::uint64_t next = 0;
  const std::uint64_t limit = std::min(seed_count, options.max_trials);
  const std::uint64_t stride = effective_stride(options.seed_stride, seed_count);
  auto seed_at = [&](std::uint64_t t) {
    const __uint128_t pos = static_cast<__uint128_t>(t) * stride +
                            options.seed_base % seed_count;
    return static_cast<std::uint64_t>(pos % seed_count);
  };
  std::vector<double> values;
  BatchStats batch_stats;
  while (next < limit) {
    const std::uint64_t batch_end = std::min(limit, next + k);
    const std::uint64_t width = batch_end - next;
    charge_batch(cluster, objective.term_count(), width, options.label);
    ++result.batches;
    // The model charges all `width` candidates of the batch (above, and in
    // the dispatch stats). The host only needs the first qualifying one, so
    // it evaluates candidates in enumeration order through find_first and
    // stops there: serially that is exactly trials t + 1 evaluations; on a
    // pool each worker claims the next candidate and skips any above the
    // current best hit, so at most threads() - 1 extra are evaluated. The
    // committed seed is the lowest qualifying trial either way, identical
    // for every thread count and dispatch path.
    batch_stats += BatchStats::for_lanes(width);
    values.assign(width, 0.0);
    std::uint64_t hit = width;
    {
      obs::HostScope eval_scope("derand/batch_eval");
      hit = cluster.executor().find_first(0, width, [&](std::uint64_t i) {
        values[i] = objective.evaluate(seed_at(next + i));
        return values[i] >= options.threshold;
      });
    }
    if (hit < width) {
      result.trials = next + hit + 1;
      result.seed = seed_at(next + hit);
      result.value = values[hit];
      span.arg("candidate_seeds", result.trials);
      span.arg("batches", result.batches);
      span.arg("committed_seed", result.seed);
      record_search(result);
      record_batch_stats(batch_stats);
      return result;
    }
    result.trials = batch_end;
    next = batch_end;
  }
  DMPC_CHECK_MSG(false, options.label
                            << ": no seed met threshold " << options.threshold
                            << " within " << limit
                            << " candidates — guarantee violated");
  return result;  // unreachable
}

SearchResult find_best_seed(mpc::Cluster& cluster, const Objective& objective,
                            std::uint64_t seed_count, std::uint64_t budget,
                            const std::string& label) {
  DMPC_CHECK(seed_count >= 1 && budget >= 1);
  obs::HostScope host_scope("derand/seed_search", cluster.trace());
  obs::Span span(cluster.trace(), label);
  const std::uint64_t limit = std::min(seed_count, budget);
  const std::uint64_t k =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(limit, cluster.space()));
  SearchResult result;
  bool have = false;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> seeds;
  std::vector<double> values;
  BatchStats batch_stats;
  while (next < limit) {
    const std::uint64_t batch_end = std::min(limit, next + k);
    charge_batch(cluster, objective.term_count(), batch_end - next, label);
    ++result.batches;
    // Host-parallel evaluation through the range oracle, then a serial
    // lowest-seed-first scan with a strict improvement test: ties commit
    // the lowest seed, exactly like the serial search.
    const std::uint64_t width = batch_end - next;
    seeds.resize(width);
    for (std::uint64_t i = 0; i < width; ++i) seeds[i] = next + i;
    values.assign(width, 0.0);
    batch_stats += batch_evaluate(cluster.executor(), objective, seeds.data(),
                                  width, values.data());
    for (std::uint64_t seed = next; seed < batch_end; ++seed) {
      ++result.trials;
      const double value = values[seed - next];
      if (!have || value > result.value) {
        have = true;
        result.seed = seed;
        result.value = value;
      }
    }
    next = batch_end;
  }
  span.arg("candidate_seeds", result.trials);
  span.arg("batches", result.batches);
  span.arg("committed_seed", result.seed);
  record_search(result);
  record_batch_stats(batch_stats);
  return result;
}

SearchResult select_seed(mpc::Cluster& cluster, const RangeObjective& objective,
                         const hash::KWiseFamily& family,
                         const SelectionOptions& options) {
  const std::uint64_t seed_count = family.seed_count();
  SearchResult best;
  if (options.mode == SelectionMode::kConditionalExpectation) {
    // Fix the two coefficients of the pairwise seed chunk by chunk with
    // exact conditional expectations. The oracle enumerates suffixes, so
    // keep the family small.
    DMPC_CHECK_MSG(seed_count <= (1ULL << 22),
                   "conditional-expectation selection needs a small "
                   "instance (family of <= 2^22 seeds)");
    const hash::SeedSpace space({family.p(), family.p()});
    ExhaustiveConditional conditional(objective, space);
    FixOptions fix_options;
    fix_options.guarantee = 0.0;
    fix_options.label = options.label + "_ce";
    const FixResult fixed = fix_seed(cluster, conditional, space, fix_options);
    best.seed = fixed.seed;
    best.value = fixed.value;
    best.trials = space.size();
    return best;
  }
  obs::HostScope host_scope("derand/selection", cluster.trace());
  obs::Span span(cluster.trace(), options.label);
  bool have = false;
  std::uint64_t evaluated = 0;
  double t = options.threshold;
  BatchStats batch_stats;
  auto seed_at = [&](std::uint64_t k) {
    const __uint128_t pos =
        static_cast<__uint128_t>(k) * 0xBF58476D1CE4E5B9ULL +
        options.salt * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::uint64_t>(pos % seed_count);
  };
  while (true) {
    const std::uint64_t budget =
        std::min<std::uint64_t>(options.batch, seed_count - evaluated);
    DMPC_CHECK_MSG(budget > 0, options.label
                                   << ": seed space exhausted — guarantee "
                                      "violated");
    charge_batch(cluster, objective.term_count(), budget, options.label);
    std::vector<std::uint64_t> seeds(budget);
    for (std::uint64_t i = 0; i < budget; ++i) {
      seeds[i] = seed_at(evaluated + i);
    }
    std::vector<double> values(budget, 0.0);
    batch_stats += batch_evaluate(cluster.executor(), objective, seeds.data(),
                                  budget, values.data());
    for (std::uint64_t i = 0; i < budget; ++i) {
      if (!have || values[i] > best.value) {
        have = true;
        best.seed = seeds[i];
        best.value = values[i];
      }
    }
    evaluated += budget;
    best.trials = evaluated;
    if (have && best.value >= t && best.value > 0) {
      span.arg("candidate_seeds", best.trials);
      span.arg("committed_seed", best.seed);
      record_batch_stats(batch_stats);
      return best;
    }
    if (evaluated % kTrialsPerThreshold == 0) t /= 2.0;
  }
}

}  // namespace dmpc::derand
