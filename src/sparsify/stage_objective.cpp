#include "sparsify/stage_objective.hpp"

#include <algorithm>
#include <cmath>

namespace dmpc::sparsify {

void set_bounds(StageWindow& w, const StageWindows& set, double q,
                double mult) {
  if (w.kind == WindowKind::kMass) {
    // Weighted Hoeffding scale: sigma^2 = q(1-q) * sum w_i^2; slack adds one
    // max-weight term for the +1 discretization.
    double mass = 0.0, sq = 0.0, wmax = 0.0;
    for (std::uint64_t i = w.begin; i < w.end; ++i) {
      const double wi = set.weights[set.items[i]];
      mass += wi;
      sq += wi * wi;
      wmax = std::max(wmax, wi);
    }
    const double slack = mult * (std::sqrt(q * (1.0 - q) * sq) + wmax);
    w.w_lo = std::max(0.0, q * mass - slack);
    return;
  }
  // Count half-width for `count` items kept independently with probability
  // q: mult * (binomial sigma + 1). The paper's asymptotic form
  // n^{0.1 delta} sqrt(e_x) is strictly wider for large n (it absorbs the
  // weaker tails of c-wise independence); the binomial form is the right
  // scale at finite n and makes the window actually bite.
  const auto count = static_cast<double>(w.count());
  const double mean = q * count;
  const double slack = mult * (std::sqrt(count * q * (1.0 - q)) + 1.0);
  w.hi = w.kind == WindowKind::kLower
             ? w.count()
             : static_cast<std::uint64_t>(
                   std::min<double>(count, std::ceil(mean + slack)));
  if (w.kind == WindowKind::kUpper) {
    w.lo = 0;
  } else {
    const double lo_real = mean - slack;
    w.lo = lo_real <= 0 ? 0 : static_cast<std::uint64_t>(std::floor(lo_real));
  }
}

void add_window(StageWindows& set, std::uint64_t begin, std::uint64_t end,
                WindowKind kind, double q, double mult) {
  if (begin == end) return;
  StageWindow w;
  w.begin = begin;
  w.end = end;
  w.kind = kind;
  set_bounds(w, set, q, mult);
  set.owners.push_back(w);
}

StageObjective::StageObjective(const hash::KWiseFamily& family,
                               std::uint64_t cutoff,
                               const StageWindows& windows)
    : cutoff_(cutoff), windows_(&windows) {
  bind_points(family, windows.universe.data(), windows.universe.size());
}

double StageObjective::accumulate_terms(std::uint64_t range_begin,
                                        std::uint64_t range_end,
                                        std::uint64_t /*seed*/,
                                        const std::uint64_t* values) const {
  const std::uint32_t* items = windows_->items.data();
  std::uint64_t good = 0;
  for (std::uint64_t o = range_begin; o < range_end; ++o) {
    const StageWindow& w = windows_->owners[o];
    if (w.kind != WindowKind::kMass) {
      std::uint64_t kept = 0;
      for (std::uint64_t i = w.begin; i < w.end; ++i) {
        if (values[items[i]] < cutoff_) ++kept;
      }
      if (kept >= w.lo && kept <= w.hi) ++good;
    } else {
      double mass = 0.0;
      for (std::uint64_t i = w.begin; i < w.end; ++i) {
        if (values[items[i]] < cutoff_) mass += windows_->weights[items[i]];
      }
      if (mass >= w.w_lo) ++good;
    }
  }
  return static_cast<double>(good);
}

}  // namespace dmpc::sparsify
