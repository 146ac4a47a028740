// Golden determinism tests: exact expected outputs on small fixed inputs.
// These pin the algorithms' observable behavior — an unintended change to
// seed enumeration, tie-breaking, or window sizing shows up here first.
// If a deliberate algorithm change breaks them, re-record the goldens and
// say so in the commit.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "obs/trace.hpp"

namespace dmpc {
namespace {

using graph::Graph;

std::vector<std::uint32_t> mis_members(const std::vector<bool>& in_set) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; v < in_set.size(); ++v) {
    if (in_set[v]) out.push_back(v);
  }
  return out;
}

TEST(Golden, PetersenLikeFixedGraph) {
  // Petersen graph: outer 5-cycle, inner pentagram, spokes.
  const Graph g = Graph::from_edges(
      10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},   // outer
           {5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},   // inner
           {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}); // spokes
  const auto mis = Solver().mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.in_set));
  // Golden output (recorded): deterministic forever. Petersen's maximum
  // independent set size is 4 and the solver finds one.
  EXPECT_EQ(mis_members(mis.in_set),
            (std::vector<std::uint32_t>{2, 4, 5, 6}));
  const auto mm = Solver().maximal_matching(g);
  EXPECT_TRUE(graph::is_maximal_matching(g, mm.matching));
  EXPECT_EQ(mm.matching.size(), 5u);  // Petersen has a perfect matching
}

TEST(Golden, FixedGnmRunsAreStable) {
  const Graph g = graph::gnm(64, 256, 123);
  const auto a = Solver().mis(g);
  const auto b = Solver().mis(g);
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.report.metrics.rounds(), b.report.metrics.rounds());
  EXPECT_EQ(a.report.metrics.total_communication(),
            b.report.metrics.total_communication());
  // The generator itself is a fixed function of its seed.
  const Graph h = graph::gnm(64, 256, 123);
  EXPECT_EQ(g.edges(), h.edges());
}

TEST(Golden, CycleSixExact) {
  const Graph g = graph::cycle(6);
  const auto mis = Solver().mis(g);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.in_set));
  const auto members = mis_members(mis.in_set);
  // C6 maximal independent sets have size 2 or 3; record the exact pick.
  EXPECT_EQ(members.size(), 3u);
  EXPECT_EQ(members, (std::vector<std::uint32_t>{0, 2, 4}));
}

TEST(Golden, MatchingOutputsSortedAndUnique) {
  const Graph g = graph::gnm(128, 512, 9);
  const auto mm = Solver().maximal_matching(g);
  auto sorted = mm.matching;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

// ---- Cross-version goldens on the sparsification path ----
//
// The determinism matrix compares thread counts within one build; these pin
// the sparsification pipeline's output across versions. Every sparsifier
// stage's committed seed, trial count and window multiplier is read off the
// stage spans' end args (the StageReport fields the spans mirror), and the
// solution members are pinned by count plus an FNV-1a digest.

struct StagePin {
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  double window_multiplier = 0.0;
  bool operator==(const StagePin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StagePin& pin) {
  return os << "{" << pin.seed << "ULL, " << pin.trials << ", "
            << pin.window_multiplier << "}";
}

/// Collects the end args of every sparsifier stage span, in emission order.
class StageSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& event) override {
    if (event.kind != obs::EventKind::kSpanEnd) return;
    if (event.name != "mis_sparsify/stage" && event.name != "sparsify/stage") {
      return;
    }
    StagePin pin;
    for (const auto& a : event.args) {
      if (a.key == "committed_seed") {
        pin.seed = static_cast<std::uint64_t>(std::get<std::int64_t>(a.value));
      } else if (a.key == "candidate_seeds") {
        pin.trials =
            static_cast<std::uint64_t>(std::get<std::int64_t>(a.value));
      } else if (a.key == "window_multiplier") {
        pin.window_multiplier = std::get<double>(a.value);
      }
    }
    stages.push_back(pin);
  }
  std::vector<StagePin> stages;
};

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& items) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const T item : items) {
    auto x = static_cast<std::uint64_t>(item);
    for (int byte = 0; byte < 8; ++byte, x >>= 8) {
      h = (h ^ (x & 0xFF)) * 1099511628211ULL;
    }
  }
  return h;
}

struct SparsePathGolden {
  std::size_t members = 0;
  std::uint64_t digest = 0;
  std::vector<StagePin> stages;
  std::uint64_t rounds = 0;
  std::uint64_t comm_words = 0;
};

template <typename Solve>
SparsePathGolden run_traced(Solve&& solve) {
  StageSink sink;
  obs::TraceSession session(&sink);
  SolveOptions options;
  options.trace = &session;
  SparsePathGolden out;
  solve(Solver(options), out);
  session.finish();
  out.stages = sink.stages;
  return out;
}

SparsePathGolden mis_golden(const Graph& g) {
  return run_traced([&](const Solver& solver, SparsePathGolden& out) {
    const auto mis = solver.mis(g);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.in_set));
    EXPECT_EQ(mis.report.algorithm_used, "sparsification");
    const auto members = mis_members(mis.in_set);
    out.members = members.size();
    out.digest = fnv1a(members);
    out.rounds = mis.report.metrics.rounds();
    out.comm_words = mis.report.metrics.total_communication();
  });
}

SparsePathGolden matching_golden(const Graph& g) {
  return run_traced([&](const Solver& solver, SparsePathGolden& out) {
    const auto mm = solver.maximal_matching(g);
    EXPECT_TRUE(graph::is_maximal_matching(g, mm.matching));
    EXPECT_EQ(mm.report.algorithm_used, "sparsification");
    out.members = mm.matching.size();
    out.digest = fnv1a(mm.matching);
    out.rounds = mm.report.metrics.rounds();
    out.comm_words = mm.report.metrics.total_communication();
  });
}

void expect_golden(const SparsePathGolden& got,
                   const SparsePathGolden& want) {
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.stages, want.stages);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.comm_words, want.comm_words);
}

TEST(Golden, SparsePathMisGnm) {
  const SparsePathGolden want{
      95, 2482881178532559256ULL,
      {{86661806662ULL, 1, 3.0}, {17233641489ULL, 1, 3.0},
       {42857450923ULL, 1, 3.0}, {68481260357ULL, 1, 3.0},
       {86661806662ULL, 1, 3.0}, {17233641489ULL, 1, 3.0}},
      130, 134672};
  expect_golden(mis_golden(graph::gnm(600, 4800, 11)), want);
}

TEST(Golden, SparsePathMatchingGnm) {
  const SparsePathGolden want{
      280, 5650345356969698367ULL,
      {{281030036433958ULL, 1, 3.0}, {170213143438184ULL, 1, 3.0},
       {30775966608715ULL, 1, 3.0}, {422622896038447ULL, 1, 3.0},
       {281030036433958ULL, 1, 3.0}, {170213143438184ULL, 1, 3.0},
       {281030036433958ULL, 1, 3.0}, {281030036433958ULL, 1, 3.0},
       {281030036433958ULL, 1, 3.0}},
      208, 241608};
  expect_golden(matching_golden(graph::gnm(600, 4800, 11)), want);
}

TEST(Golden, SparsePathMisPowerLaw) {
  const SparsePathGolden want{
      185, 2964820941829996849ULL,
      {{11944696520ULL, 1, 3.0}, {2053997891ULL, 1, 3.0}},
      78, 27259};
  expect_golden(mis_golden(graph::power_law(400, 1600, 2.5, 13)), want);
}

TEST(Golden, SparsePathMatchingPowerLaw) {
  const SparsePathGolden want{
      148, 9767836236864207559ULL,
      {{1392064810721ULL, 1, 3.0}, {5633307389946ULL, 1, 3.0},
       {2784129621442ULL, 1, 3.0}, {5603393813739ULL, 1, 3.0},
       {1392064810721ULL, 1, 3.0}, {5633307389946ULL, 1, 3.0},
       {1392064810721ULL, 1, 3.0}, {5633307389946ULL, 1, 3.0},
       {2784129621442ULL, 1, 3.0}, {5603393813739ULL, 1, 3.0},
       {4176194432163ULL, 1, 3.0}, {1392064810721ULL, 1, 3.0},
       {1392064810721ULL, 1, 3.0}, {5633307389946ULL, 1, 3.0},
       {2784129621442ULL, 1, 3.0}, {1392064810721ULL, 1, 3.0},
       {5633307389946ULL, 1, 3.0}, {2784129621442ULL, 1, 3.0},
       {5603393813739ULL, 1, 3.0}, {4176194432163ULL, 1, 3.0},
       {1327016663659ULL, 1, 3.0}, {5568259242884ULL, 1, 3.0},
       {2719081474380ULL, 1, 3.0}, {1392064810721ULL, 1, 3.0},
       {5633307389946ULL, 1, 3.0}, {2784129621442ULL, 1, 3.0},
       {5603393813739ULL, 1, 3.0}, {4176194432163ULL, 1, 3.0},
       {1392064810721ULL, 1, 3.0}, {5633307389946ULL, 1, 3.0},
       {2784129621442ULL, 1, 3.0}, {5603393813739ULL, 1, 3.0},
       {4176194432163ULL, 1, 3.0}, {1327016663659ULL, 1, 3.0},
       {1392064810721ULL, 1, 3.0}, {1392064810721ULL, 1, 3.0},
       {5633307389946ULL, 1, 3.0}, {2784129621442ULL, 1, 3.0}},
      440, 298742};
  expect_golden(matching_golden(graph::power_law(400, 1600, 2.5, 13)), want);
}

}  // namespace
}  // namespace dmpc
