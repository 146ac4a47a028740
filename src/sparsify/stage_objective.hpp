// The seed objective shared by the edge (§3.2) and node (§4.2) sparsifier
// stages: the number of owners whose goodness window holds under a hash seed.
//
// A stage sub-samples a list L_{j-1} (edges E_{j-1} or nodes Q_{j-1}),
// keeping item x iff h(x) < cutoff. Each owner (a node's incident list, an
// X(v) list, a Q-neighbour list, or the global list L_{j-1} itself) checks
// the items of its window: a kept COUNT within [lo, hi], or a kept 1/d(u)
// MASS of at least w_lo. An owner's total is the sum over its group
// machines, one Lemma-4 aggregation away, so evaluating per owner costs the
// same O(1) rounds as per machine. Every window lists items of L_{j-1}, so
// L_{j-1} (ascending) is the hash point universe and window items are stored
// as positions into it: a candidate seed hashes |L_{j-1}| distinct points
// once, and the window scan reads values[pos].
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "derand/objective.hpp"
#include "hash/kwise.hpp"

namespace dmpc::sparsify {

/// How a window's bounds are set from its size (set_bounds).
enum class WindowKind {
  kUpper,  ///< Kept count at most mean + slack.
  kLower,  ///< Kept count at least mean - slack.
  kBoth,   ///< Two-sided count window.
  kMass,   ///< Kept 1/d(u) mass at least mean - slack (weighted Hoeffding).
};

/// One owner's window over StageWindows::items[begin, end).
struct StageWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  WindowKind kind = WindowKind::kUpper;
  std::uint64_t lo = 0;  ///< Count bounds (count kinds).
  std::uint64_t hi = 0;
  double w_lo = 0.0;     ///< Mass lower bound (kMass).
  std::uint64_t count() const { return end - begin; }
};

struct StageWindows {
  std::vector<std::uint64_t> universe;  ///< L_{j-1}, ascending: hash points.
  std::vector<double> weights;          ///< Per universe position (kMass only).
  std::vector<std::uint32_t> items;     ///< Window items: universe positions.
  std::vector<StageWindow> owners;
};

/// Marks an item outside the universe in a position map.
inline constexpr std::uint32_t kNoPosition =
    std::numeric_limits<std::uint32_t>::max();

/// Set the window's bounds for sampling rate q and slack multiplier `mult`:
/// half-width mult * (binomial sigma + 1) for counts; mult * (weighted sigma
/// + max weight) for masses. See DESIGN.md §2.3 for the finite-n sizing.
void set_bounds(StageWindow& w, const StageWindows& set, double q,
                double mult);

/// Append the window over set.items[begin, end) with bounds set, unless it
/// is empty.
void add_window(StageWindows& set, std::uint64_t begin, std::uint64_t end,
                WindowKind kind, double q, double mult);

/// Objective: number of good owners under the hash seed (threshold = all).
/// Count windows are integer tallies; masses accumulate in ascending item
/// order, so every value is bit-identical to a scalar recount over the
/// original item lists. Windows are read by pointer: escalation rewrites the
/// bounds in place without rebuilding the PowerTable.
class StageObjective final : public derand::RangeObjective {
 public:
  StageObjective(const hash::KWiseFamily& family, std::uint64_t cutoff,
                 const StageWindows& windows);

  double accumulate_terms(std::uint64_t range_begin, std::uint64_t range_end,
                          std::uint64_t seed,
                          const std::uint64_t* values) const override;

  std::uint64_t range_count() const override { return windows_->owners.size(); }
  std::uint64_t term_count() const override { return windows_->owners.size(); }

 private:
  std::uint64_t cutoff_;
  const StageWindows* windows_;
};

}  // namespace dmpc::sparsify
